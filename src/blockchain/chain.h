#ifndef CONSENSUS40_BLOCKCHAIN_CHAIN_H_
#define CONSENSUS40_BLOCKCHAIN_CHAIN_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "blockchain/block.h"
#include "common/status.h"

namespace consensus40::blockchain {

/// Chain configuration.
struct ChainOptions {
  /// Desired seconds between blocks (600 on Bitcoin mainnet).
  uint32_t block_interval_secs = 600;
  /// Retarget every this many blocks (2016 on mainnet).
  uint64_t retarget_interval = 2016;
  /// Initial target.
  Target initial_target = Target::FromLeadingZeroBits(8);
  /// Initial block reward and halving period (50 BTC / 210,000).
  int64_t initial_reward = 50;
  uint64_t halving_interval = 210000;
  /// If false, AddBlock skips the PoW check (macro mining simulation).
  bool verify_pow = true;
};

/// A block tree with the longest-(most-work)-chain rule: tracks every
/// received block, cumulative work per tip, the best chain, forks, and
/// reorganizations; computes retargets and rewards.
class BlockTree {
 public:
  explicit BlockTree(ChainOptions options);

  /// Validates and inserts a block. Errors: unknown parent (orphan),
  /// bad PoW, wrong difficulty, bad merkle root. If `hash_out` is non-null
  /// it receives the block's header digest, whatever the outcome.
  Status AddBlock(const Block& block, crypto::Digest* hash_out = nullptr);

  /// Hash of the best tip (genesis digest initially = zero digest).
  const crypto::Digest& BestTip() const { return best_tip_; }
  uint64_t BestHeight() const { return best_chain_.size(); }
  double BestWork() const;

  /// The expected target for a block extending `parent_hash` (handles the
  /// retarget boundary).
  Target NextTarget(const crypto::Digest& parent_hash) const;

  /// NextTarget(parent_hash).Difficulty(), reusing the parent's stored
  /// difficulty when the target does not change.
  double NextDifficulty(const crypto::Digest& parent_hash) const;

  /// Reward for a block at the given height.
  int64_t RewardAt(uint64_t height) const;

  /// Block lookup.
  const Block* GetBlock(const crypto::Digest& hash) const;
  uint64_t HeightOf(const crypto::Digest& hash) const;

  /// Transaction digests of a stored block, in block order (its merkle
  /// leaves after the coinbase), computed once when the block was added.
  /// nullptr for an unknown block.
  const std::vector<crypto::Digest>* TxDigests(
      const crypto::Digest& hash) const;

  /// Best-chain hashes from genesis (exclusive) to the tip (inclusive):
  /// entry i is the block at height i + 1. A reference to an index that
  /// AddBlock maintains; it changes whenever the best tip does.
  const std::vector<crypto::Digest>& BestChain() const { return best_chain_; }

  /// True iff `hash` is on the current best chain: one lookup and an
  /// index read, no walk.
  bool OnBestChain(const crypto::Digest& hash) const;

  /// Number of blocks ever received that are NOT on the best chain —
  /// the fork/orphan count ("aborted" blocks in the deck).
  int StaleBlocks() const;

  /// Number of reorganizations (best-tip switches to a different branch).
  int reorgs() const { return reorgs_; }

  /// Confirmations of `hash` on the best chain (0 if off-chain).
  int Confirmations(const crypto::Digest& hash) const;

  /// Sum of coinbase rewards per miner along the best chain.
  std::map<int32_t, int64_t> RewardsByMiner() const;

  /// Builds the merkle inclusion proof for `tx_hash` inside the block
  /// `block_hash` (what a full node serves to SPV light clients). Errors:
  /// unknown block, transaction not in it.
  Result<crypto::MerkleProof> ProveInclusion(
      const crypto::Digest& block_hash, const crypto::Digest& tx_hash) const;

  /// Total number of blocks stored (including stale branches).
  size_t TotalBlocks() const { return entries_.size(); }

  const ChainOptions& options() const { return options_; }

 private:
  struct Entry {
    Block block;
    uint64_t height = 0;
    double work = 0;  ///< Cumulative work from genesis.
    double difficulty = 0;  ///< block.header.target.Difficulty().
    uint32_t timestamp = 0;
    std::vector<crypto::Digest> tx_digests;  ///< Merkle leaves 1..n.
  };

  const Entry* GetEntry(const crypto::Digest& hash) const;
  Target NextTargetAfter(const Entry& parent) const;
  /// Moves the best tip to `tip` and re-points best_chain_: truncate to
  /// the fork with the old chain, then append the new branch.
  void SetBestTip(const crypto::Digest& tip, uint64_t height);

  ChainOptions options_;
  /// Never iterated, so hash order cannot reach any output; the nodes stay
  /// put, so `const Entry*` survives later inserts.
  std::unordered_map<crypto::Digest, Entry, crypto::DigestHash> entries_;
  crypto::Digest best_tip_{};  ///< Zero digest = genesis sentinel.
  std::vector<crypto::Digest> best_chain_;  ///< [h - 1] = block at height h.
  int reorgs_ = 0;
};

}  // namespace consensus40::blockchain

#endif  // CONSENSUS40_BLOCKCHAIN_CHAIN_H_
