#include <gtest/gtest.h>

#include <vector>
#include <memory>

#include "cheapbft/cheapbft.h"
#include "crypto/signatures.h"
#include "sim/simulation.h"

namespace consensus40::cheapbft {
namespace {

using sim::kMillisecond;
using sim::kSecond;

struct CheapCluster {
  explicit CheapCluster(int f, uint64_t seed = 1)
      : sim_owner(
            sim::Simulation::Builder(seed).AutoStart(false).Build()),
        sim(*sim_owner), registry(seed, 2 * f + 1 + 8), usig(&registry) {
    CheapBftOptions opts;
    opts.f = f;
    opts.registry = &registry;
    opts.usig = &usig;
    for (int i = 0; i < 2 * f + 1; ++i) {
      replicas.push_back(sim.Spawn<CheapBftReplica>(opts));
    }
  }

  smr::QuorumClient* AddClient(int ops, const std::string& key = "x") {
    clients.push_back(cheapbft::SpawnClient(
        &sim, (static_cast<int>(replicas.size()) - 1) / 2, &registry, ops,
        key));
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
  }

  std::unique_ptr<sim::Simulation> sim_owner;
  sim::Simulation& sim;
  crypto::KeyRegistry registry;
  crypto::Usig usig;
  std::vector<CheapBftReplica*> replicas;
  std::vector<smr::QuorumClient*> clients;
};

TEST(CheapBftTest, CheapTinyCommitsWithFPlusOneActive) {
  CheapCluster cluster(1);  // n = 3, active = {0, 1}, passive = {2}.
  auto* client = cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1));
  }
  // Still running the cheap protocol.
  for (const CheapBftReplica* r : cluster.replicas) {
    EXPECT_EQ(r->mode(), CheapMode::kCheapTiny) << r->id();
  }
  cluster.CheckSafety();
}

TEST(CheapBftTest, PassiveReplicaTracksStateViaUpdates) {
  CheapCluster cluster(1);
  auto* client = cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond));
  cluster.sim.RunFor(2 * kSecond);  // Drain updates.
  EXPECT_EQ(cluster.replicas[2]->executed(), 10u);
  EXPECT_EQ(*cluster.replicas[2]->kv().Get("x"), "10");
  cluster.CheckSafety();
}

TEST(CheapBftTest, CheapTinyIsCheaperThanFullBroadcast) {
  CheapCluster cluster(2);  // n = 5, active = 3, passive = 2.
  auto* client = cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond));
  // Prepare goes to f+1 = 3 replicas only; commit exchange is within the
  // active set: per request roughly 3 prepares + 3*2 commits + updates.
  uint64_t prepares = cluster.sim.stats().sent_by_type.at("cheap-prepare");
  EXPECT_LE(prepares, 10u * 3u + 5u);
  for (const CheapBftReplica* r : cluster.replicas) {
    EXPECT_EQ(r->mode(), CheapMode::kCheapTiny);
  }
}

TEST(CheapBftTest, ActiveCrashTriggersSwitchToMinBft) {
  CheapCluster cluster(1);
  auto* client = cluster.AddClient(12);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 4; },
                                   30 * kSecond));
  // Kill active replica 1: CheapTiny needs ALL active replicas, so the
  // cluster must PANIC and fall back.
  cluster.sim.Crash(1);
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  cluster.CheckSafety();
  for (const CheapBftReplica* r : cluster.replicas) {
    if (cluster.sim.IsCrashed(r->id())) continue;
    EXPECT_EQ(r->mode(), CheapMode::kMinBft) << r->id();
  }
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

TEST(CheapBftTest, SwitchPreservesExecutedPrefix) {
  CheapCluster cluster(1);
  auto* client = cluster.AddClient(20);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 8; },
                                   60 * kSecond));
  cluster.sim.Crash(1);
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  cluster.sim.RunFor(2 * kSecond);
  cluster.CheckSafety();
  // The counter ends at exactly 20: nothing lost, nothing doubled across
  // the protocol switch.
  for (const CheapBftReplica* r : cluster.replicas) {
    if (cluster.sim.IsCrashed(r->id())) continue;
    EXPECT_EQ(*r->kv().Get("x"), "20") << r->id();
  }
}

TEST(CheapBftTest, LargerClusterSwitchesToo) {
  CheapCluster cluster(2);  // n = 5.
  auto* client = cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 3; },
                                   60 * kSecond));
  cluster.sim.Crash(2);  // Active replica.
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  cluster.CheckSafety();
}

}  // namespace
}  // namespace consensus40::cheapbft
