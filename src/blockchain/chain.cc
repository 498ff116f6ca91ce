#include "blockchain/chain.h"

#include <algorithm>

namespace consensus40::blockchain {

BlockTree::BlockTree(ChainOptions options) : options_(options) {
  // Implicit genesis entry under the zero digest.
  Entry genesis;
  genesis.height = 0;
  genesis.work = 0;
  genesis.timestamp = 0;
  genesis.block.header.target = options_.initial_target;
  entries_[crypto::Digest{}] = genesis;
}

const BlockTree::Entry* BlockTree::GetEntry(const crypto::Digest& hash) const {
  auto it = entries_.find(hash);
  return it == entries_.end() ? nullptr : &it->second;
}

const Block* BlockTree::GetBlock(const crypto::Digest& hash) const {
  const Entry* e = GetEntry(hash);
  return e == nullptr ? nullptr : &e->block;
}

uint64_t BlockTree::HeightOf(const crypto::Digest& hash) const {
  const Entry* e = GetEntry(hash);
  return e == nullptr ? 0 : e->height;
}

double BlockTree::BestWork() const {
  const Entry* e = GetEntry(best_tip_);
  return e == nullptr ? 0 : e->work;
}

Target BlockTree::NextTarget(const crypto::Digest& parent_hash) const {
  const Entry* parent = GetEntry(parent_hash);
  if (parent == nullptr) return options_.initial_target;
  uint64_t next_height = parent->height + 1;
  Target parent_target = parent->height == 0 ? options_.initial_target
                                             : parent->block.header.target;
  if (next_height % options_.retarget_interval != 0 || parent->height == 0) {
    return parent_target;
  }
  // Retarget: compare the actual time of the last interval against the
  // expected time, clamped to [1/4, 4] as in Bitcoin.
  const Entry* span_start = parent;
  for (uint64_t i = 0; i + 1 < options_.retarget_interval; ++i) {
    const Entry* prev = GetEntry(span_start->block.header.prev_hash);
    if (prev == nullptr || prev->height == 0) break;
    span_start = prev;
  }
  uint64_t actual = parent->timestamp > span_start->timestamp
                        ? parent->timestamp - span_start->timestamp
                        : 1;
  uint64_t expected =
      options_.block_interval_secs * (options_.retarget_interval - 1);
  if (expected == 0) expected = 1;
  uint64_t lo = expected / 4, hi = expected * 4;
  actual = std::clamp<uint64_t>(actual, std::max<uint64_t>(lo, 1), hi);
  return parent_target.Scaled(actual, expected);
}

int64_t BlockTree::RewardAt(uint64_t height) const {
  return BlockReward(height, options_.initial_reward,
                     options_.halving_interval);
}

Status BlockTree::AddBlock(const Block& block) {
  crypto::Digest hash = block.Hash();
  if (entries_.count(hash) > 0) {
    return Status::AlreadyExists("duplicate block");
  }
  const Entry* parent = GetEntry(block.header.prev_hash);
  if (parent == nullptr) {
    return Status::NotFound("orphan block: unknown parent");
  }
  std::vector<crypto::Digest> leaves = block.MerkleLeaves();
  if (!(block.header.merkle_root == crypto::MerkleRoot(leaves))) {
    return Status::Corruption("merkle root mismatch");
  }
  Target expected = NextTarget(block.header.prev_hash);
  if (!(block.header.target == expected)) {
    return Status::InvalidArgument("wrong difficulty target");
  }
  if (options_.verify_pow && !block.header.target.IsMetBy(hash)) {
    return Status::InvalidArgument("insufficient proof of work");
  }
  if (block.reward != RewardAt(parent->height + 1)) {
    return Status::InvalidArgument("wrong block reward");
  }

  Entry entry;
  entry.block = block;
  entry.height = parent->height + 1;
  entry.work = parent->work + block.header.target.Difficulty();
  entry.timestamp = block.header.timestamp;
  entry.tx_digests.assign(leaves.begin() + 1, leaves.end());
  const Entry& added = entries_.emplace(hash, std::move(entry)).first->second;

  const Entry* best = GetEntry(best_tip_);
  if (best == nullptr || added.work > best->work) {
    // Longest(-work) chain rule; count branch switches as reorgs.
    if (best != nullptr && best_tip_ != block.header.prev_hash &&
        !(best_tip_ == crypto::Digest{})) {
      ++reorgs_;
    }
    SetBestTip(hash, added.height);
  }
  return Status::Ok();
}

void BlockTree::SetBestTip(const crypto::Digest& tip, uint64_t height) {
  // Walk the new branch down to the first block the index already holds.
  std::vector<crypto::Digest> branch;
  crypto::Digest cursor = tip;
  for (uint64_t h = height; h > 0; --h) {
    if (h <= best_chain_.size() && best_chain_[h - 1] == cursor) break;
    branch.push_back(cursor);
    cursor = GetEntry(cursor)->block.header.prev_hash;
  }
  best_chain_.resize(height - branch.size());
  best_chain_.insert(best_chain_.end(), branch.rbegin(), branch.rend());
  best_tip_ = tip;
}

const std::vector<crypto::Digest>* BlockTree::TxDigests(
    const crypto::Digest& hash) const {
  const Entry* e = GetEntry(hash);
  return e == nullptr ? nullptr : &e->tx_digests;
}

bool BlockTree::OnBestChain(const crypto::Digest& hash) const {
  const Entry* e = GetEntry(hash);
  if (e == nullptr) return false;
  if (e->height == 0) return true;  // Genesis roots every chain.
  return e->height <= best_chain_.size() && best_chain_[e->height - 1] == hash;
}

int BlockTree::StaleBlocks() const {
  // Every stored block except genesis is on the best chain or stale.
  return static_cast<int>(entries_.size() - 1 - best_chain_.size());
}

int BlockTree::Confirmations(const crypto::Digest& hash) const {
  if (!OnBestChain(hash)) return 0;
  const Entry* e = GetEntry(hash);
  return static_cast<int>(BestHeight() - e->height) + 1;
}

Result<crypto::MerkleProof> BlockTree::ProveInclusion(
    const crypto::Digest& block_hash, const crypto::Digest& tx_hash) const {
  const Block* block = GetBlock(block_hash);
  if (block == nullptr) return Status::NotFound("unknown block");
  std::vector<crypto::Digest> leaves = block->MerkleLeaves();
  for (size_t i = 0; i + 1 < leaves.size(); ++i) {
    if (leaves[i + 1] == tx_hash) {
      // Leaf index i+1: the coinbase occupies leaf 0.
      return crypto::BuildMerkleProof(leaves, i + 1);
    }
  }
  return Status::NotFound("transaction not in block");
}

std::map<int32_t, int64_t> BlockTree::RewardsByMiner() const {
  std::map<int32_t, int64_t> rewards;
  for (const crypto::Digest& hash : BestChain()) {
    const Entry* e = GetEntry(hash);
    rewards[e->block.miner] += e->block.reward;
  }
  return rewards;
}

}  // namespace consensus40::blockchain
