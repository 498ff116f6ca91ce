#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "blockchain/chain.h"
#include "blockchain/mempool.h"
#include "blockchain/miner.h"
#include "sim/simulation.h"

namespace consensus40::blockchain {
namespace {

using sim::kMillisecond;
using sim::kSecond;

Transaction Tx(const std::string& payload, int64_t fee = 1) {
  Transaction tx;
  tx.payload = payload;
  tx.amount = 1;
  tx.fee = fee;
  return tx;
}

ChainOptions TestChain() {
  ChainOptions opts;
  opts.verify_pow = false;
  opts.block_interval_secs = 10;
  opts.retarget_interval = 1000;
  opts.initial_reward = 50;
  opts.halving_interval = 1u << 20;
  return opts;
}

Block MakeBlock(const BlockTree& tree, const crypto::Digest& parent,
                int32_t miner, uint32_t timestamp,
                std::vector<Transaction> txs = {}) {
  Block block;
  block.header.prev_hash = parent;
  block.header.timestamp = timestamp;
  block.header.target = tree.NextTarget(parent);
  block.miner = miner;
  block.reward = tree.RewardAt(tree.HeightOf(parent) + 1);
  block.txs = std::move(txs);
  block.header.merkle_root = block.ComputeMerkleRoot();
  return block;
}

TEST(MempoolTest, AddAndSelectByFee) {
  Mempool pool;
  EXPECT_TRUE(pool.Add(Tx("a", 1)));
  EXPECT_TRUE(pool.Add(Tx("b", 5)));
  EXPECT_TRUE(pool.Add(Tx("c", 3)));
  EXPECT_FALSE(pool.Add(Tx("a", 1)));  // Duplicate.
  auto picked = pool.Select(2);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0].payload, "b");
  EXPECT_EQ(picked[1].payload, "c");
}

TEST(MempoolTest, ConfirmationRemovesFromPending) {
  Mempool pool;
  Transaction tx = Tx("pay");
  pool.Add(tx);
  BlockTree tree(TestChain());
  Block block = MakeBlock(tree, crypto::Digest{}, 0, 10, {tx});
  ASSERT_TRUE(tree.AddBlock(block).ok());
  pool.SyncWithChain(tree);
  EXPECT_TRUE(pool.IsConfirmed(tx.Hash()));
  EXPECT_FALSE(pool.IsPending(tx.Hash()));
  EXPECT_EQ(pool.pending_count(), 0u);
}

// The deck's fork figure: "transactions in this block are aborted /
// resubmitted" — a reorg returns the orphaned block's transactions to the
// pool.
TEST(MempoolTest, ReorgResubmitsAbandonedTransactions) {
  Mempool pool;
  Transaction tx = Tx("reorged-out");
  pool.Add(tx);
  BlockTree tree(TestChain());

  // Branch A includes the transaction.
  Block a1 = MakeBlock(tree, crypto::Digest{}, 1, 10, {tx});
  ASSERT_TRUE(tree.AddBlock(a1).ok());
  pool.SyncWithChain(tree);
  EXPECT_TRUE(pool.IsConfirmed(tx.Hash()));

  // Branch B (without the transaction) overtakes.
  Block b1 = MakeBlock(tree, crypto::Digest{}, 2, 10);
  ASSERT_TRUE(tree.AddBlock(b1).ok());
  Block b2 = MakeBlock(tree, b1.Hash(), 2, 20);
  ASSERT_TRUE(tree.AddBlock(b2).ok());
  pool.SyncWithChain(tree);

  EXPECT_FALSE(pool.IsConfirmed(tx.Hash()));
  EXPECT_TRUE(pool.IsPending(tx.Hash()));  // Aborted, awaiting re-mining.
  EXPECT_EQ(pool.resubmissions(), 1);
}

TEST(MempoolTest, ReconfirmationAfterResubmission) {
  Mempool pool;
  Transaction tx = Tx("eventually-confirmed");
  pool.Add(tx);
  BlockTree tree(TestChain());
  Block a1 = MakeBlock(tree, crypto::Digest{}, 1, 10, {tx});
  ASSERT_TRUE(tree.AddBlock(a1).ok());
  pool.SyncWithChain(tree);
  Block b1 = MakeBlock(tree, crypto::Digest{}, 2, 10);
  Block b2 = MakeBlock(tree, b1.Hash(), 2, 20);
  ASSERT_TRUE(tree.AddBlock(b1).ok());
  ASSERT_TRUE(tree.AddBlock(b2).ok());
  pool.SyncWithChain(tree);
  ASSERT_TRUE(pool.IsPending(tx.Hash()));
  // A later block on the B-branch re-mines it.
  Block b3 = MakeBlock(tree, b2.Hash(), 2, 30, {tx});
  ASSERT_TRUE(tree.AddBlock(b3).ok());
  pool.SyncWithChain(tree);
  EXPECT_TRUE(pool.IsConfirmed(tx.Hash()));
  EXPECT_FALSE(pool.IsPending(tx.Hash()));
}

// End-to-end: transactions submitted at one miner get gossiped, mined,
// and confirmed at every miner.
TEST(MempoolTest, TransactionsFlowThroughMiningNetwork) {
  sim::NetworkOptions net;
  net.min_delay = 100 * kMillisecond;
  net.max_delay = 500 * kMillisecond;
  auto sim_owner =
      sim::Simulation::Builder(3).Network(net).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  MinerNetworkParams params;
  params.chain = TestChain();
  params.chain.block_interval_secs = 30;
  params.initial_hash_total = 3;
  std::vector<Miner*> miners;
  for (int i = 0; i < 3; ++i) {
    miners.push_back(sim.Spawn<Miner>(&params, 3, 1.0));
  }
  sim.Start();

  std::vector<Transaction> txs;
  for (int i = 0; i < 5; ++i) txs.push_back(Tx("tx" + std::to_string(i), i));
  for (const Transaction& tx : txs) miners[0]->SubmitTransaction(tx);

  sim.RunFor(1800 * kSecond);  // ~60 blocks.
  for (Miner* m : miners) {
    for (const Transaction& tx : txs) {
      EXPECT_TRUE(m->mempool().IsConfirmed(tx.Hash()))
          << "miner " << m->id() << " tx " << tx.payload;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential test: the library's chain-following state against a full
// rescan of the best chain, over seeded random block trees.
// ---------------------------------------------------------------------------

// Best-chain digests from genesis (exclusive) to the tip, by walking parent
// pointers from the tip.
std::vector<crypto::Digest> WalkBestChain(const BlockTree& tree) {
  std::vector<crypto::Digest> chain;
  for (crypto::Digest cursor = tree.BestTip(); !(cursor == crypto::Digest{});
       cursor = tree.GetBlock(cursor)->header.prev_hash) {
    chain.push_back(cursor);
  }
  return {chain.rbegin(), chain.rend()};
}

// The full-rescan mempool rule: after every sync, exactly the transactions
// on the best chain are confirmed, and each confirmed transaction that left
// the chain is back in the pool and counted as a resubmission.
class RescanPool {
 public:
  bool Add(const Transaction& tx) {
    crypto::Digest hash = tx.Hash();
    if (known_.count(hash) > 0) return false;
    known_[hash] = tx;
    if (confirmed_.count(hash) == 0) pending_[hash] = tx;
    return true;
  }

  std::vector<Transaction> Select(size_t max) const {
    std::vector<Transaction> picked;
    for (const auto& [hash, tx] : pending_) picked.push_back(tx);
    std::sort(picked.begin(), picked.end(),
              [](const Transaction& a, const Transaction& b) {
                return a.fee > b.fee;
              });
    if (picked.size() > max) picked.resize(max);
    return picked;
  }

  void Sync(const BlockTree& tree) {
    std::set<crypto::Digest> on_chain;
    for (const crypto::Digest& block_hash : WalkBestChain(tree)) {
      for (const Transaction& tx : tree.GetBlock(block_hash)->txs) {
        on_chain.insert(tx.Hash());
        known_.emplace(tx.Hash(), tx);
      }
    }
    for (const crypto::Digest& hash : on_chain) {
      confirmed_.insert(hash);
      pending_.erase(hash);
    }
    for (auto it = confirmed_.begin(); it != confirmed_.end();) {
      if (on_chain.count(*it) == 0) {
        pending_[*it] = known_[*it];
        ++resubmissions_;
        it = confirmed_.erase(it);
      } else {
        ++it;
      }
    }
  }

  bool IsPending(const crypto::Digest& h) const { return pending_.count(h); }
  bool IsConfirmed(const crypto::Digest& h) const {
    return confirmed_.count(h);
  }
  size_t pending_count() const { return pending_.size(); }
  size_t confirmed_count() const { return confirmed_.size(); }
  int resubmissions() const { return resubmissions_; }

 private:
  std::map<crypto::Digest, Transaction> pending_;
  std::set<crypto::Digest> confirmed_;
  std::map<crypto::Digest, Transaction> known_;
  int resubmissions_ = 0;
};

// Grows a random block tree: mostly extends a working branch, sometimes
// forks it off the best chain 1-6 blocks below the tip (a later overtake is
// a reorg of that depth) or off any earlier block. Block bodies draw from a
// small transaction set, so one transaction lands in competing branches and
// twice on one branch.
class ForkingTree {
 public:
  explicit ForkingTree(uint64_t seed) : rng_(seed), tree_(TestChain()) {
    // Repeated fees exercise Select's ordering among equal fees.
    for (int i = 0; i < 10; ++i) {
      txs_.push_back(Tx("t" + std::to_string(i), i % 4));
    }
  }

  const BlockTree& tree() const { return tree_; }
  const std::vector<Transaction>& txs() const { return txs_; }
  const std::vector<crypto::Digest>& blocks() const { return blocks_; }
  uint64_t Draw(uint64_t n) { return rng_() % n; }

  // Adds one block; returns the depth of the reorg it caused (0 if none).
  size_t Grow() {
    crypto::Digest parent = head_;
    uint64_t r = Draw(20);
    if (r < 5) {
      parent = tree_.BestTip();
      for (uint64_t d = 1 + Draw(6); d > 0 && !(parent == crypto::Digest{});
           --d) {
        parent = tree_.GetBlock(parent)->header.prev_hash;
      }
    } else if (r < 8 && !blocks_.empty()) {
      parent = blocks_[Draw(blocks_.size())];
    }
    std::vector<Transaction> body;
    for (uint64_t n = Draw(4); n > 0; --n) {
      body.push_back(txs_[Draw(txs_.size())]);
    }
    Block block = MakeBlock(tree_, parent, static_cast<int32_t>(Draw(3)),
                            static_cast<uint32_t>(10 * (blocks_.size() + 1)),
                            std::move(body));
    block.header.nonce = rng_();
    std::vector<crypto::Digest> before = WalkBestChain(tree_);
    EXPECT_TRUE(tree_.AddBlock(block).ok());
    head_ = block.Hash();
    blocks_.push_back(head_);
    std::vector<crypto::Digest> after = WalkBestChain(tree_);
    size_t common = 0;
    while (common < before.size() && common < after.size() &&
           before[common] == after[common]) {
      ++common;
    }
    return before.size() - common;
  }

 private:
  std::mt19937_64 rng_;
  BlockTree tree_;
  std::vector<Transaction> txs_;
  std::vector<crypto::Digest> blocks_;
  crypto::Digest head_{};
};

// The chain queries after every AddBlock equal a parent-pointer walk.
void ExpectChainQueriesMatchWalk(const BlockTree& tree,
                                 const std::vector<crypto::Digest>& blocks) {
  std::vector<crypto::Digest> walk = WalkBestChain(tree);
  ASSERT_EQ(tree.BestChain(), walk);
  std::set<crypto::Digest> on_chain(walk.begin(), walk.end());
  EXPECT_TRUE(tree.OnBestChain(crypto::Digest{}));
  EXPECT_EQ(tree.Confirmations(crypto::Digest{}),
            static_cast<int>(walk.size()) + 1);
  int stale = 0;
  for (const crypto::Digest& hash : blocks) {
    bool on = on_chain.count(hash) > 0;
    stale += on ? 0 : 1;
    EXPECT_EQ(tree.OnBestChain(hash), on);
    int expected = on ? static_cast<int>(walk.size() - tree.HeightOf(hash)) + 1
                      : 0;
    EXPECT_EQ(tree.Confirmations(hash), expected);
  }
  EXPECT_EQ(tree.StaleBlocks(), stale);
}

TEST(BlockTreeTest, BestChainQueriesMatchParentWalkOnRandomForks) {
  size_t deepest_reorg = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ForkingTree gen(seed);
    for (int step = 0; step < 150; ++step) {
      deepest_reorg = std::max(deepest_reorg, gen.Grow());
      ExpectChainQueriesMatchWalk(gen.tree(), gen.blocks());
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(gen.tree().reorgs(), 0) << "seed " << seed;
  }
  EXPECT_GE(deepest_reorg, 4u);
}

TEST(MempoolTest, IncrementalSyncMatchesFullRescan) {
  size_t deepest_reorg = 0;
  int resubmitted = 0, twice_on_one_branch = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ForkingTree gen(seed);
    Mempool pool;
    RescanPool ref;
    for (int step = 0; step < 150; ++step) {
      // Some transactions reach the pool from clients; the rest are seen
      // only in blocks.
      if (gen.Draw(3) == 0) {
        const Transaction& tx = gen.txs()[gen.Draw(gen.txs().size())];
        EXPECT_EQ(pool.Add(tx), ref.Add(tx));
      }
      // Zero to three blocks between syncs: none is a sync without a tip
      // change, several model orphans connecting in one delivery.
      for (uint64_t n = gen.Draw(4); n > 0; --n) {
        deepest_reorg = std::max(deepest_reorg, gen.Grow());
      }
      pool.SyncWithChain(gen.tree());
      ref.Sync(gen.tree());

      std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      for (const Transaction& tx : gen.txs()) {
        ASSERT_EQ(pool.IsPending(tx.Hash()), ref.IsPending(tx.Hash()))
            << where << " " << tx.payload;
        ASSERT_EQ(pool.IsConfirmed(tx.Hash()), ref.IsConfirmed(tx.Hash()))
            << where << " " << tx.payload;
      }
      ASSERT_EQ(pool.pending_count(), ref.pending_count()) << where;
      ASSERT_EQ(pool.confirmed_count(), ref.confirmed_count()) << where;
      ASSERT_EQ(pool.resubmissions(), ref.resubmissions()) << where;
      std::vector<Transaction> got = pool.Select(SIZE_MAX);
      std::vector<Transaction> want = ref.Select(SIZE_MAX);
      ASSERT_EQ(got.size(), want.size()) << where;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].Hash(), want[i].Hash()) << where << " rank " << i;
      }
    }
    resubmitted += ref.resubmissions();
    std::map<crypto::Digest, int> inclusions;
    for (const crypto::Digest& hash : WalkBestChain(gen.tree())) {
      for (const Transaction& tx : gen.tree().GetBlock(hash)->txs) {
        if (++inclusions[tx.Hash()] == 2) ++twice_on_one_branch;
      }
    }
  }
  // The trees did exercise what the incremental path must get right.
  EXPECT_GE(deepest_reorg, 4u);
  EXPECT_GT(resubmitted, 0);
  EXPECT_GT(twice_on_one_branch, 0);
}

TEST(SelfishMinerTest, MinorityAttackerGainsNothing) {
  // At ~20% hash power (gamma ~ 0) selfish mining LOSES revenue.
  sim::NetworkOptions net;
  net.min_delay = 50 * kMillisecond;
  net.max_delay = 200 * kMillisecond;
  auto sim_owner =
      sim::Simulation::Builder(11).Network(net).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  MinerNetworkParams params;
  params.chain = TestChain();
  params.chain.block_interval_secs = 60;
  params.initial_hash_total = 10;
  auto* attacker = sim.Spawn<SelfishMiner>(&params, 4, 2.0);  // 20%.
  std::vector<Miner*> honest;
  for (int i = 0; i < 3; ++i) {
    honest.push_back(sim.Spawn<Miner>(&params, 4, 8.0 / 3));
  }
  sim.Start();
  sim.RunFor(200000 * kSecond);
  auto rewards = honest[0]->tree().RewardsByMiner();
  int64_t total = 0;
  for (const auto& [m, r] : rewards) total += r;
  ASSERT_GT(total, 0);
  double share = static_cast<double>(rewards[attacker->id()]) / total;
  EXPECT_LT(share, 0.20) << "a 20% selfish miner should earn LESS than 20%";
  EXPECT_GT(attacker->blocks_withheld_total(), 0);
}

TEST(SelfishMinerTest, LargeAttackerProfitsAboveFairShare) {
  // At 45% hash power selfish mining beats honest mining decisively.
  sim::NetworkOptions net;
  net.min_delay = 50 * kMillisecond;
  net.max_delay = 200 * kMillisecond;
  auto sim_owner =
      sim::Simulation::Builder(13).Network(net).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  MinerNetworkParams params;
  params.chain = TestChain();
  params.chain.block_interval_secs = 60;
  params.initial_hash_total = 20;
  auto* attacker = sim.Spawn<SelfishMiner>(&params, 4, 9.0);  // 45%.
  std::vector<Miner*> honest;
  for (int i = 0; i < 3; ++i) {
    honest.push_back(sim.Spawn<Miner>(&params, 4, 11.0 / 3));
  }
  sim.Start();
  sim.RunFor(200000 * kSecond);
  auto rewards = honest[0]->tree().RewardsByMiner();
  int64_t total = 0;
  for (const auto& [m, r] : rewards) total += r;
  ASSERT_GT(total, 0);
  double share = static_cast<double>(rewards[attacker->id()]) / total;
  EXPECT_GT(share, 0.48) << "a 45% selfish miner should beat its fair share";
}

TEST(SelfishMinerTest, HonestChainPrefixStillConverges) {
  sim::NetworkOptions net;
  net.min_delay = 50 * kMillisecond;
  net.max_delay = 200 * kMillisecond;
  auto sim_owner =
      sim::Simulation::Builder(17).Network(net).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  MinerNetworkParams params;
  params.chain = TestChain();
  params.chain.block_interval_secs = 60;
  params.initial_hash_total = 10;
  sim.Spawn<SelfishMiner>(&params, 4, 3.0);
  std::vector<Miner*> honest;
  for (int i = 0; i < 3; ++i) {
    honest.push_back(sim.Spawn<Miner>(&params, 4, 7.0 / 3));
  }
  sim.Start();
  sim.RunFor(30000 * kSecond);
  // The honest miners share a common prefix (the attack shifts revenue
  // but cannot split the honest view beyond the propagating tail).
  auto chain0 = honest[0]->tree().BestChain();
  for (Miner* m : honest) {
    auto chain = m->tree().BestChain();
    size_t overlap = std::min(chain.size(), chain0.size());
    for (size_t i = 0; i + 3 < overlap; ++i) {
      ASSERT_EQ(chain[i], chain0[i]) << "prefix diverges at " << i;
    }
  }
}

}  // namespace
}  // namespace consensus40::blockchain
