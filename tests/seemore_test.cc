#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "crypto/signatures.h"
#include "seemore/seemore.h"
#include "sim/simulation.h"

namespace consensus40::seemore {
namespace {

using sim::kMillisecond;
using sim::kSecond;

/// Mode-3 Byzantine primary: equivocates between the real command and a
/// forged one across the proxy set.
class EquivocatingPublicPrimary : public SeeMoReReplica {
 public:
  explicit EquivocatingPublicPrimary(SeeMoReOptions options)
      : SeeMoReReplica(options) {}
  int equivocations = 0;

 protected:
  bool MaybeActMaliciouslyOnRequest(const smr::Command& cmd,
                                    const crypto::Signature& sig) override {
    ++equivocations;
    smr::Command evil = cmd;
    evil.op = "PUT stolen 666";
    uint64_t seq = next_evil_seq_++;
    for (int r = 0; r < options_.n(); ++r) {
      auto propose = std::make_shared<ProposeMsg>();
      propose->seq = seq;
      propose->cmd = (r % 2 == 0) ? cmd : evil;
      propose->client_sig = sig;
      crypto::Sha256 h;
      h.Update(&seq, sizeof(seq));
      crypto::Digest d = propose->cmd.Hash();
      h.Update(d.data(), d.size());
      propose->primary_sig = options_.registry->Sign(id(), h.Finish());
      CountedSend(r, propose);
    }
    return true;
  }

 private:
  uint64_t next_evil_seq_ = 1;
};

struct SeeMoReCluster {
  SeeMoReCluster(int m, int c, SeeMoReMode mode, uint64_t seed = 1,
                 bool byz_primary = false)
      : sim_owner(
            sim::Simulation::Builder(seed).AutoStart(false).Build()),
        sim(*sim_owner), registry(seed, 3 * m + 2 * c + 1 + 8) {
    opts.m = m;
    opts.c = c;
    opts.mode = mode;
    opts.registry = &registry;
    for (int i = 0; i < opts.n(); ++i) {
      bool is_primary =
          (mode == SeeMoReMode::kMode3) ? i == opts.private_n() : i == 0;
      if (byz_primary && is_primary && mode == SeeMoReMode::kMode3) {
        replicas.push_back(sim.Spawn<EquivocatingPublicPrimary>(opts));
        sim.MarkByzantine(i);
      } else {
        replicas.push_back(sim.Spawn<SeeMoReReplica>(opts));
      }
    }
  }

  smr::QuorumClient* AddClient(int ops, const std::string& key = "x") {
    clients.push_back(seemore::SpawnClient(&sim, opts, ops, key));
    return clients.back();
  }

  void CheckSafety() const {
    for (size_t a = 0; a < replicas.size(); ++a) {
      if (sim.IsByzantine(replicas[a]->id())) continue;
      for (size_t b = a + 1; b < replicas.size(); ++b) {
        if (sim.IsByzantine(replicas[b]->id())) continue;
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

  uint64_t PrivateCloudLoad() const {
    uint64_t load = 0;
    for (const SeeMoReReplica* r : replicas) {
      if (r->IsPrivate()) load += r->messages_sent();
    }
    return load;
  }

  SeeMoReOptions opts;
  std::unique_ptr<sim::Simulation> sim_owner;
  sim::Simulation& sim;
  crypto::KeyRegistry registry;
  std::vector<SeeMoReReplica*> replicas;
  std::vector<smr::QuorumClient*> clients;
};

class SeeMoReModeTest : public ::testing::TestWithParam<SeeMoReMode> {};

TEST_P(SeeMoReModeTest, CommitsAndConverges) {
  SeeMoReCluster cluster(1, 1, GetParam());
  auto* client = cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 120 * kSecond));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1));
  }
  cluster.sim.RunFor(2 * kSecond);
  cluster.CheckSafety();
  // Every replica (private and public) learned every decision.
  for (const SeeMoReReplica* r : cluster.replicas) {
    EXPECT_EQ(r->executed(), 10u) << r->id();
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, SeeMoReModeTest,
                         ::testing::Values(SeeMoReMode::kMode1,
                                           SeeMoReMode::kMode2,
                                           SeeMoReMode::kMode3));

TEST(SeeMoReTest, Mode2ReducesPrivateCloudLoad) {
  SeeMoReCluster mode1(1, 1, SeeMoReMode::kMode1);
  auto* c1 = mode1.AddClient(10);
  mode1.sim.Start();
  ASSERT_TRUE(mode1.sim.RunUntil([&] { return c1->done(); }, 120 * kSecond));
  mode1.sim.RunFor(1 * kSecond);

  SeeMoReCluster mode2(1, 1, SeeMoReMode::kMode2);
  auto* c2 = mode2.AddClient(10);
  mode2.sim.Start();
  ASSERT_TRUE(mode2.sim.RunUntil([&] { return c2->done(); }, 120 * kSecond));
  mode2.sim.RunFor(1 * kSecond);

  // Mode 2's goal per the deck: reduce the load on the private cloud by
  // moving decision making to public proxies.
  EXPECT_LT(mode2.PrivateCloudLoad(), mode1.PrivateCloudLoad());
}

TEST(SeeMoReTest, Mode1QuorumIsLargerThanMode2) {
  SeeMoReOptions o1;
  o1.m = 2;
  o1.c = 3;
  o1.mode = SeeMoReMode::kMode1;
  SeeMoReOptions o2 = o1;
  o2.mode = SeeMoReMode::kMode2;
  crypto::KeyRegistry registry(1, o1.n() + 2);
  o1.registry = &registry;
  o2.registry = &registry;
  auto sim_owner = sim::Simulation::Builder(1).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  auto* r1 = sim.Spawn<SeeMoReReplica>(o1);
  EXPECT_EQ(r1->DecisionQuorum(), 2 * 2 + 3 + 1);  // 2m+c+1.
  SeeMoReOptions o2b = o2;
  auto* r2 = sim.Spawn<SeeMoReReplica>(o2b);
  EXPECT_EQ(r2->DecisionQuorum(), 2 * 2 + 1);  // 2m+1.
}

TEST(SeeMoReTest, Mode3ValidationBlocksEquivocation) {
  SeeMoReCluster cluster(1, 1, SeeMoReMode::kMode3, 1, /*byz_primary=*/true);
  auto* client = cluster.AddClient(3);
  cluster.sim.Start();
  // The equivocating primary cannot gather a validation quorum on either
  // branch (no view change implemented => no progress), but safety holds.
  cluster.sim.RunFor(10 * kSecond);
  cluster.CheckSafety();
  for (const SeeMoReReplica* r : cluster.replicas) {
    if (cluster.sim.IsByzantine(r->id())) continue;
    EXPECT_FALSE(r->kv().Get("stolen").has_value()) << r->id();
    EXPECT_EQ(r->executed(), 0u) << r->id();
  }
  EXPECT_EQ(client->completed(), 0);
}

TEST(SeeMoReTest, Mode1ToleratesPrivateCrashes) {
  SeeMoReCluster cluster(1, 2, SeeMoReMode::kMode1);  // n = 3+4+1 = 8.
  auto* client = cluster.AddClient(8);
  // Crash c = 2 private (non-primary) nodes.
  cluster.sim.Crash(1);
  cluster.sim.Crash(2);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 120 * kSecond));
  cluster.CheckSafety();
}

TEST(SeeMoReTest, Mode3ToleratesByzantineSilentProxy) {
  SeeMoReCluster cluster(1, 1, SeeMoReMode::kMode3);
  auto* client = cluster.AddClient(8);
  // Silence one non-primary proxy (crash models a silent Byzantine node).
  cluster.sim.Crash(cluster.opts.private_n() + 1);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 120 * kSecond));
  cluster.CheckSafety();
}

}  // namespace
}  // namespace consensus40::seemore
