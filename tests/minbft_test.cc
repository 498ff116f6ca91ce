#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "crypto/signatures.h"
#include "minbft/minbft.h"
#include "sim/simulation.h"

namespace consensus40::minbft {
namespace {

using sim::kMillisecond;
using sim::kSecond;

/// Byzantine primary that replays an old UI with a different command —
/// exactly the equivocation the USIG makes impossible.
class UiReplayingPrimary : public MinBftReplica {
 public:
  explicit UiReplayingPrimary(MinBftOptions options) : MinBftReplica(options) {}
  int forgeries = 0;

 protected:
  bool MaybeActMaliciouslyOnRequest(const smr::Command& cmd,
                                    const crypto::Signature& sig) override {
    ++forgeries;
    // Create a legitimate UI for the real command but attach an altered
    // command: VerifyUi must fail at every honest backup.
    crypto::Sha256 h;
    int64_t v = view();
    h.Update(&v, sizeof(v));
    crypto::Digest d = cmd.Hash();
    h.Update(d.data(), d.size());
    crypto::Usig::UI ui = options_.usig->CreateUi(id(), h.Finish());

    auto prepare = std::make_shared<PrepareMsg>();
    prepare->view = view();
    prepare->cmd = cmd;
    prepare->cmd.op = "PUT stolen 666";
    prepare->client_sig = sig;
    prepare->ui = ui;
    for (int r = 0; r < options_.n; ++r) Send(r, prepare);
    return true;
  }
};

struct MinBftCluster {
  explicit MinBftCluster(int n, uint64_t seed = 1, bool byz_primary = false)
      : sim_owner(
            sim::Simulation::Builder(seed).AutoStart(false).Build()),
        sim(*sim_owner), registry(seed, n + 8), usig(&registry) {
    MinBftOptions opts;
    opts.n = n;
    opts.registry = &registry;
    opts.usig = &usig;
    for (int i = 0; i < n; ++i) {
      if (i == 0 && byz_primary) {
        replicas.push_back(sim.Spawn<UiReplayingPrimary>(opts));
        sim.MarkByzantine(i);
      } else {
        replicas.push_back(sim.Spawn<MinBftReplica>(opts));
      }
    }
  }

  smr::QuorumClient* AddClient(int ops, const std::string& key = "x") {
    clients.push_back(minbft::SpawnClient(
        &sim, static_cast<int>(replicas.size()), &registry, ops, key));
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

  std::unique_ptr<sim::Simulation> sim_owner;
  sim::Simulation& sim;
  crypto::KeyRegistry registry;
  crypto::Usig usig;
  std::vector<MinBftReplica*> replicas;
  std::vector<smr::QuorumClient*> clients;
};

TEST(MinBftTest, CommitsWithTwoFPlusOneReplicas) {
  MinBftCluster cluster(3);  // f = 1: only 3 replicas, not PBFT's 4.
  auto* client = cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1));
  }
  cluster.CheckSafety();
}

TEST(MinBftTest, TwoPhasesOnly) {
  MinBftCluster cluster(3);
  auto* client = cluster.AddClient(5);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond));
  // Only prepare + commit protocol messages — no pre-prepare phase.
  const auto& by_type = cluster.sim.stats().sent_by_type;
  EXPECT_GT(by_type.at("minbft-prepare"), 0u);
  EXPECT_GT(by_type.at("minbft-commit"), 0u);
  EXPECT_EQ(by_type.count("pre-prepare"), 0u);
}

TEST(MinBftTest, ReplicasConverge) {
  MinBftCluster cluster(5);  // f = 2.
  cluster.AddClient(10, "a");
  cluster.AddClient(10, "b");
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil(
      [&] {
        for (const smr::QuorumClient* c : cluster.clients) {
          if (!c->done()) return false;
        }
        return true;
      },
      120 * kSecond));
  cluster.sim.RunFor(2 * kSecond);
  cluster.CheckSafety();
  for (const MinBftReplica* r : cluster.replicas) {
    EXPECT_EQ(r->last_executed(), 20u) << r->id();
    EXPECT_EQ(*r->kv().Get("a"), "10");
    EXPECT_EQ(*r->kv().Get("b"), "10");
  }
}

TEST(MinBftTest, ToleratesBackupCrash) {
  MinBftCluster cluster(3);
  auto* client = cluster.AddClient(10);
  cluster.sim.Crash(2);  // f = 1 crash fault; quorum f+1 = 2 remains.
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond));
  cluster.CheckSafety();
}

TEST(MinBftTest, ViewChangeOnPrimaryCrash) {
  MinBftCluster cluster(3);
  auto* client = cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 3; },
                                   30 * kSecond));
  cluster.sim.Crash(0);
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 120 * kSecond));
  cluster.CheckSafety();
  for (const MinBftReplica* r : cluster.replicas) {
    if (r->id() == 0) continue;
    EXPECT_GT(r->view(), 0) << r->id();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

TEST(MinBftTest, UiForgeryRejectedAndPrimaryDeposed) {
  MinBftCluster cluster(3, 1, /*byz_primary=*/true);
  auto* client = cluster.AddClient(6);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  cluster.CheckSafety();
  auto* evil = dynamic_cast<UiReplayingPrimary*>(cluster.replicas[0]);
  EXPECT_GT(evil->forgeries, 0);
  for (const MinBftReplica* r : cluster.replicas) {
    if (cluster.sim.IsByzantine(r->id())) continue;
    EXPECT_FALSE(r->kv().Get("stolen").has_value()) << r->id();
    EXPECT_GT(r->view(), 0) << r->id();  // The forger was voted out.
  }
}

}  // namespace
}  // namespace consensus40::minbft
