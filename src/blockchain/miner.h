#ifndef CONSENSUS40_BLOCKCHAIN_MINER_H_
#define CONSENSUS40_BLOCKCHAIN_MINER_H_

#include <map>
#include <memory>
#include <vector>

#include "blockchain/chain.h"
#include "blockchain/mempool.h"
#include "sim/simulation.h"

namespace consensus40::blockchain {

/// Shared parameters of a mining network (macro simulation: block
/// discovery is a Poisson process per miner with rate proportional to
/// hash power and inversely proportional to difficulty, which is exactly
/// the stochastic behaviour of real PoW — see DESIGN.md substitutions).
struct MinerNetworkParams {
  ChainOptions chain;         ///< verify_pow is forced off.
  double initial_hash_total = 1.0;  ///< Calibration hash rate H0.
  /// The difficulty at calibration (initial target's difficulty); filled
  /// by the first miner.
  double initial_difficulty = 0.0;
  /// Max transactions per block.
  size_t block_tx_limit = 100;
};

/// A miner node: gossips transactions, mines on its view of the best
/// chain, broadcasts found blocks, adopts the longest chain it hears
/// about, re-mines on reorgs, and returns reorged-out transactions to its
/// mempool. Subclass and override the virtual hooks to build adversarial
/// miners (e.g. SelfishMiner).
class Miner : public sim::Process {
 public:
  struct BlockMsg : sim::Message {
    explicit BlockMsg(Block b) : block(std::move(b)) {}
    const char* TypeName() const override { return "block"; }
    int ByteSize() const override {
      return 120 + static_cast<int>(block.txs.size()) * 64;
    }
    Block block;
  };
  struct TxMsg : sim::Message {
    explicit TxMsg(Transaction t) : tx(std::move(t)) {}
    const char* TypeName() const override { return "tx"; }
    int ByteSize() const override {
      return 32 + static_cast<int>(tx.payload.size());
    }
    Transaction tx;
  };

  /// `params` is shared by every miner of the network and must outlive
  /// them. `hash_power` is this miner's share (any positive unit).
  Miner(MinerNetworkParams* params, int num_miners, double hash_power);

  const BlockTree& tree() const { return tree_; }
  const Mempool& mempool() const { return mempool_; }
  int blocks_mined() const { return blocks_mined_; }
  double hash_power() const { return hash_power_; }
  /// Total expected hashes this miner ground (energy proxy).
  double expected_hashes() const { return expected_hashes_; }

  /// Changes this miner's hash power (takes effect at the next schedule).
  void SetHashPower(double hash_power);

  /// Submits a client transaction at this node: pool it and gossip it.
  void SubmitTransaction(const Transaction& tx);

  void OnStart() override;
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 protected:
  /// The block this miner currently mines on top of. Default: the best
  /// tip. A selfish miner overrides this to extend its private chain.
  virtual crypto::Digest MiningParent() const;

  /// Invoked when the Poisson clock fires: default builds a block on
  /// MiningParent(), adds it locally, and broadcasts it.
  virtual void OnBlockFound();

  /// Invoked after a received block (and any connected orphans) has been
  /// added; old_tip/new_tip allow reorg-aware strategies.
  virtual void OnChainUpdated(const crypto::Digest& old_tip,
                              const crypto::Digest& new_tip);

  /// Invoked for every external block that connected to the tree, before
  /// OnChainUpdated, with the digest AddBlock computed for it. Lets
  /// adversarial strategies track the public chain.
  virtual void OnExternalBlock(const Block& /*block*/,
                               const crypto::Digest& /*hash*/) {}

  /// Builds a candidate block on `parent` with mempool transactions.
  Block BuildBlock(const crypto::Digest& parent);

  /// Gossips `msg` to every other miner, in id order.
  void SendToPeers(const sim::MessagePtr& msg);

  /// (Re)schedules the Poisson mining clock against MiningParent().
  void ScheduleMining();

  MinerNetworkParams* params_;
  int num_miners_;
  double hash_power_;
  BlockTree tree_;
  Mempool mempool_;
  int blocks_mined_ = 0;

 private:
  double MeanTimeToBlockSecs() const;
  void TryConnectOrphans();

  uint64_t mining_timer_ = 0;
  double expected_hashes_ = 0;
  sim::Time last_rate_update_ = 0;
  std::multimap<crypto::Digest, Block> orphans_;  ///< parent hash -> block.
};

/// The Eyal–Sirer selfish miner: withholds found blocks to build a private
/// lead, publishes just enough to orphan honest work. Profitable above
/// roughly a third of the network hash rate (with gamma ~ 0).
class SelfishMiner : public Miner {
 public:
  SelfishMiner(MinerNetworkParams* params, int num_miners, double hash_power)
      : Miner(params, num_miners, hash_power) {}

  int blocks_withheld_total() const { return withheld_total_; }
  int private_lead() const { return static_cast<int>(private_blocks_.size()); }

 protected:
  crypto::Digest MiningParent() const override;
  void OnBlockFound() override;
  void OnChainUpdated(const crypto::Digest& old_tip,
                      const crypto::Digest& new_tip) override;
  void OnExternalBlock(const Block& block, const crypto::Digest& hash) override;

 private:
  struct PrivateBlock {
    Block block;
    crypto::Digest hash;  ///< As AddBlock computed it.
  };

  void PublishFront(size_t count);

  std::vector<PrivateBlock> private_blocks_;  ///< Unpublished private suffix.
  uint64_t public_height_ = 0;  ///< Highest height of any published block.
  int withheld_total_ = 0;
};

}  // namespace consensus40::blockchain

#endif  // CONSENSUS40_BLOCKCHAIN_MINER_H_
