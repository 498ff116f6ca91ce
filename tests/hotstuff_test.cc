#include <gtest/gtest.h>

#include <vector>
#include <memory>

#include "crypto/signatures.h"
#include "hotstuff/hotstuff.h"
#include "sim/simulation.h"

namespace consensus40::hotstuff {
namespace {

using sim::kMillisecond;
using sim::kSecond;

struct HsCluster {
  explicit HsCluster(int n, uint64_t seed = 1)
      : sim_owner(
            sim::Simulation::Builder(seed).AutoStart(false).Build()),
        sim(*sim_owner), registry(seed, n + 8) {
    HotStuffOptions opts;
    opts.n = n;
    opts.registry = &registry;
    for (int i = 0; i < n; ++i) {
      replicas.push_back(sim.Spawn<HotStuffReplica>(opts));
    }
  }

  smr::QuorumClient* AddClient(int ops, const std::string& key = "x") {
    clients.push_back(hotstuff::SpawnClient(
        &sim, static_cast<int>(replicas.size()), &registry, ops, key));
    return clients.back();
  }

  void CheckSafety() const {
    for (size_t a = 0; a < replicas.size(); ++a) {
      for (size_t b = a + 1; b < replicas.size(); ++b) {
        const auto& ca = replicas[a]->executed_commands();
        const auto& cb = replicas[b]->executed_commands();
        size_t overlap = std::min(ca.size(), cb.size());
        for (size_t i = 0; i < overlap; ++i) {
          ASSERT_TRUE(ca[i] == cb[i])
              << "replicas " << a << "," << b << " diverge at " << i;
        }
      }
    }
    for (const HotStuffReplica* r : replicas) {
      EXPECT_TRUE(r->violations().empty())
          << "replica " << r->id() << ": " << r->violations()[0];
    }
  }

  std::unique_ptr<sim::Simulation> sim_owner;
  sim::Simulation& sim;
  crypto::KeyRegistry registry;
  std::vector<HotStuffReplica*> replicas;
  std::vector<smr::QuorumClient*> clients;
};

TEST(HotStuffTest, CommitsClientCommands) {
  HsCluster cluster(4);
  auto* client = cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 120 * kSecond));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1));
  }
  cluster.CheckSafety();
}

TEST(HotStuffTest, LeaderRotatesEveryBlock) {
  HsCluster cluster(4);
  auto* client = cluster.AddClient(12);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 120 * kSecond));
  // Proposals came from several distinct replicas (view = leader rotation).
  int proposers = 0;
  for (const HotStuffReplica* r : cluster.replicas) {
    if (r->blocks_proposed() > 0) ++proposers;
  }
  EXPECT_GE(proposers, 3);
  cluster.CheckSafety();
}

TEST(HotStuffTest, ReplicasConverge) {
  HsCluster cluster(4);
  cluster.AddClient(8, "a");
  cluster.AddClient(8, "b");
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil(
      [&] {
        for (const smr::QuorumClient* c : cluster.clients) {
          if (!c->done()) return false;
        }
        return true;
      },
      240 * kSecond));
  cluster.sim.RunFor(3 * kSecond);
  cluster.CheckSafety();
  for (const HotStuffReplica* r : cluster.replicas) {
    EXPECT_EQ(*r->kv().Get("a"), "8") << r->id();
    EXPECT_EQ(*r->kv().Get("b"), "8") << r->id();
  }
}

TEST(HotStuffTest, ToleratesFCrashes) {
  HsCluster cluster(4);
  auto* client = cluster.AddClient(8);
  cluster.sim.Crash(2);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  cluster.CheckSafety();
}

TEST(HotStuffTest, CrashedLeaderSkippedByPacemaker) {
  HsCluster cluster(4);
  auto* client = cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 3; },
                                   60 * kSecond));
  // Crash whoever leads next; timeouts must rotate past it.
  uint64_t v = cluster.replicas[0]->current_view();
  cluster.sim.Crash((v + 1) % 4);
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  cluster.CheckSafety();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

TEST(HotStuffTest, MessageComplexityIsLinear) {
  // The deck's HotStuff headline: each all-to-all PBFT phase becomes
  // all-to-one + one-to-all.
  auto messages_per_command = [](int n) {
    HsCluster cluster(n);
    auto* client = cluster.AddClient(10);
    cluster.sim.Start();
    cluster.sim.RunUntil([&] { return client->done(); }, 240 * kSecond);
    EXPECT_TRUE(client->done()) << "n=" << n;
    uint64_t proto = cluster.sim.stats().sent_by_type.at("hs-proposal") +
                     cluster.sim.stats().sent_by_type.at("hs-vote");
    return proto / 10.0;
  };
  double at4 = messages_per_command(4);
  double at10 = messages_per_command(10);
  // Linear in n: ratio near 2.5, far below quadratic 6.25.
  EXPECT_LT(at10 / at4, 4.0);
}

TEST(HotStuffTest, PipelinePacksManyCommandsPerChain) {
  HsCluster cluster(4);
  // Eight concurrent closed-loop clients keep the pending queue full:
  // blocks batch several commands and the chained pipeline overlaps the
  // prepare/pre-commit/commit phases of consecutive blocks.
  for (int i = 0; i < 8; ++i) cluster.AddClient(5, "k" + std::to_string(i));
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil(
      [&] {
        for (const smr::QuorumClient* c : cluster.clients) {
          if (!c->done()) return false;
        }
        return true;
      },
      240 * kSecond));
  cluster.CheckSafety();
  // 40 commands fit into well under one block per command.
  int total_blocks = 0;
  for (const HotStuffReplica* r : cluster.replicas) {
    total_blocks += r->blocks_proposed();
  }
  EXPECT_LT(total_blocks, 36);
  // And at least one block carried a real batch.
  size_t executed = cluster.replicas[0]->executed_commands().size();
  EXPECT_EQ(executed, 40u);
}

}  // namespace
}  // namespace consensus40::hotstuff
