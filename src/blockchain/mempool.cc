#include "blockchain/mempool.h"

#include <algorithm>
#include <cassert>

namespace consensus40::blockchain {

bool Mempool::Add(const Transaction& tx) {
  crypto::Digest hash = tx.Hash();
  if (known_.count(hash) > 0) return false;
  known_[hash] = tx;
  if (confirmed_.count(hash) == 0) pending_[hash] = tx;
  return true;
}

std::vector<Transaction> Mempool::Select(size_t max) const {
  std::vector<Transaction> picked;
  picked.reserve(std::min(max, pending_.size()));
  for (const auto& [hash, tx] : pending_) picked.push_back(tx);
  std::sort(picked.begin(), picked.end(),
            [](const Transaction& a, const Transaction& b) {
              return a.fee > b.fee;
            });
  if (picked.size() > max) picked.resize(max);
  return picked;
}

void Mempool::SyncWithChain(const BlockTree& tree) {
  assert(tree_ == nullptr || tree_ == &tree);
  tree_ = &tree;
  if (synced_tip_ == tree.BestTip()) return;

  // Blocks that left the best chain, from the old tip down to the fork:
  // one inclusion fewer for each of their transactions.
  std::vector<crypto::Digest> left;
  crypto::Digest fork = synced_tip_;
  while (!tree.OnBestChain(fork)) {
    for (const crypto::Digest& hash : *tree.TxDigests(fork)) {
      --confirmed_[hash];
      left.push_back(hash);
    }
    fork = tree.GetBlock(fork)->header.prev_hash;
  }
  // Blocks that joined it, from the fork up to the new tip: confirmed.
  const std::vector<crypto::Digest>& chain = tree.BestChain();
  for (size_t h = tree.HeightOf(fork); h < chain.size(); ++h) {
    const std::vector<crypto::Digest>& digests = *tree.TxDigests(chain[h]);
    const std::vector<Transaction>& txs = tree.GetBlock(chain[h])->txs;
    for (size_t i = 0; i < txs.size(); ++i) {
      ++confirmed_[digests[i]];
      known_.emplace(digests[i], txs[i]);
      pending_.erase(digests[i]);
    }
  }
  // A transaction whose last inclusion left is aborted and resubmitted:
  // back to pending.
  for (const crypto::Digest& hash : left) {
    auto it = confirmed_.find(hash);
    if (it == confirmed_.end() || it->second > 0) continue;
    confirmed_.erase(it);
    pending_[hash] = known_[hash];
    ++resubmissions_;
  }
  synced_tip_ = tree.BestTip();
}

}  // namespace consensus40::blockchain
