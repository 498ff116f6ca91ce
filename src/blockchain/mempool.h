#ifndef CONSENSUS40_BLOCKCHAIN_MEMPOOL_H_
#define CONSENSUS40_BLOCKCHAIN_MEMPOOL_H_

#include <cstdint>
#include <map>
#include <vector>

#include "blockchain/block.h"
#include "blockchain/chain.h"

namespace consensus40::blockchain {

/// A miner's pending-transaction pool. Tracks which transactions are
/// confirmed on the current best chain; after a reorganization, the
/// transactions of abandoned blocks return to the pool — the deck's
/// "transactions in this block are aborted/resubmitted".
///
/// A Mempool follows exactly one BlockTree (asserted in debug builds): it
/// remembers the tip it last synced to and how many times each transaction
/// appears on the best chain, and each sync applies only the reorg delta.
class Mempool {
 public:
  /// Adds a transaction heard from a client or a peer. Duplicates (by
  /// hash) are ignored. Returns true if newly added.
  bool Add(const Transaction& tx);

  /// Picks up to `max` pending transactions for a new block, highest fee
  /// first (the standard miner policy).
  std::vector<Transaction> Select(size_t max) const;

  /// Synchronizes with `tree`, the one tree this pool follows, after any
  /// number of AddBlock calls: marks best-chain transactions confirmed and
  /// returns those whose last best-chain inclusion was abandoned to
  /// pending. Walks only the blocks that left the best chain (old tip down
  /// to the fork) and the blocks that joined it (fork up to the new tip),
  /// using the digests the tree stored: O(reorg depth x block size), and
  /// no hashing. A sync without a tip change does nothing.
  void SyncWithChain(const BlockTree& tree);

  /// True if the transaction is in a best-chain block.
  bool IsConfirmed(const crypto::Digest& tx_hash) const {
    return confirmed_.count(tx_hash) > 0;
  }
  bool IsPending(const crypto::Digest& tx_hash) const {
    return pending_.count(tx_hash) > 0;
  }
  size_t pending_count() const { return pending_.size(); }
  size_t confirmed_count() const { return confirmed_.size(); }
  /// Cumulative number of transactions that fell out of the best chain in
  /// reorgs (aborted/resubmitted).
  int resubmissions() const { return resubmissions_; }

 private:
  std::map<crypto::Digest, Transaction> pending_;
  /// Confirmed transaction -> number of its inclusions on the best chain
  /// as of synced_tip_ (always > 0).
  std::map<crypto::Digest, int> confirmed_;
  std::map<crypto::Digest, Transaction> known_;  ///< Everything ever seen.
  int resubmissions_ = 0;
  crypto::Digest synced_tip_{};  ///< Best tip at the last sync.
  const BlockTree* tree_ = nullptr;  ///< The tree this pool follows.
};

}  // namespace consensus40::blockchain

#endif  // CONSENSUS40_BLOCKCHAIN_MEMPOOL_H_
