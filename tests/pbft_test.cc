#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "crypto/signatures.h"
#include "pbft/pbft.h"
#include "sim/simulation.h"

namespace consensus40::pbft {
namespace {

using sim::kMillisecond;
using sim::kSecond;

/// Byzantine primary that assigns the SAME sequence number to DIFFERENT
/// commands for different halves of the cluster — the attack PBFT's prepare
/// phase exists to stop.
/// Byzantine primary that (a) tries to forge a client command (invalid
/// client signature — rejected outright by honest replicas) and (b)
/// equivocates by sending the real command to half the cluster and the
/// forgery to the other half for the same sequence number.
class EquivocatingPrimary : public PbftReplica {
 public:
  explicit EquivocatingPrimary(PbftOptions options) : PbftReplica(options) {}

  int equivocations = 0;

 protected:
  bool MaybeActMaliciouslyOnRequest(const smr::Command& cmd,
                                    const crypto::Signature& sig) override {
    ++equivocations;
    uint64_t seq = next_equivocation_seq_++;
    smr::Command evil = cmd;
    evil.op = "PUT stolen 666";  // Forgery: sig does not cover this op.

    for (int r = 0; r < options_.n; ++r) {
      auto pp = std::make_shared<PrePrepareMsg>();
      pp->view = view();
      pp->seq = seq;
      pp->cmds = {(r % 2 == 0) ? cmd : evil};
      pp->client_sigs = {sig};
      pp->digest = BatchDigest(pp->cmds);
      crypto::Sha256 h;
      int64_t v = pp->view;
      h.Update(&v, sizeof(v));
      h.Update(&seq, sizeof(seq));
      h.Update(pp->digest.data(), pp->digest.size());
      pp->sig = options_.registry->Sign(id(), h.Finish());
      Send(r, pp);
    }
    return true;  // Skip honest processing.
  }

 private:
  uint64_t next_equivocation_seq_ = 1;
};

struct PbftCluster {
  explicit PbftCluster(int n, uint64_t seed = 1, int byzantine_primary = -1)
      : sim_owner(
            sim::Simulation::Builder(seed).AutoStart(false).Build()),
        sim(*sim_owner), registry(seed, n + 8) {  // Replicas + up to 8 clients.
    PbftOptions opts;
    opts.n = n;
    opts.registry = &registry;
    for (int i = 0; i < n; ++i) {
      if (i == byzantine_primary) {
        replicas.push_back(sim.Spawn<EquivocatingPrimary>(opts));
        sim.MarkByzantine(i);
      } else {
        replicas.push_back(sim.Spawn<PbftReplica>(opts));
      }
    }
  }

  smr::QuorumClient* AddClient(int ops, const std::string& key = "x") {
    clients.push_back(pbft::SpawnClient(
        &sim, static_cast<int>(replicas.size()), &registry, ops, key));
    return clients.back();
  }

  void CheckSafety() const {
    // Executed command sequences of correct replicas must be prefixes of
    // each other.
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
    for (const PbftReplica* r : replicas) {
      if (sim.IsByzantine(r->id())) continue;
      EXPECT_TRUE(r->violations().empty())
          << "replica " << r->id() << ": " << r->violations()[0];
    }
  }

  std::unique_ptr<sim::Simulation> sim_owner;
  sim::Simulation& sim;
  crypto::KeyRegistry registry;
  std::vector<PbftReplica*> replicas;
  std::vector<smr::QuorumClient*> clients;
};

TEST(PbftTest, FaultFreeCaseCommits) {
  PbftCluster cluster(4);
  auto* client = cluster.AddClient(10);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1));
  }
  cluster.CheckSafety();
  // No view change was needed.
  for (const PbftReplica* r : cluster.replicas) {
    EXPECT_EQ(r->view(), 0) << r->id();
  }
}

TEST(PbftTest, ReplicasConvergeAndCheckpoint) {
  PbftCluster cluster(4);
  auto* client = cluster.AddClient(40);
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 120 * kSecond));
  cluster.sim.RunFor(2 * kSecond);
  cluster.CheckSafety();
  for (const PbftReplica* r : cluster.replicas) {
    EXPECT_EQ(r->last_executed(), 40u);
    EXPECT_EQ(*r->kv().Get("x"), "40");
    // Checkpoints every 16: stable checkpoint advanced and log collected.
    EXPECT_GE(r->stable_checkpoint(), 32u);
    EXPECT_LE(r->LogSizeForTest(), 16u);
  }
}

TEST(PbftTest, ToleratesFCrashedBackups) {
  PbftCluster cluster(4);
  auto* client = cluster.AddClient(10);
  cluster.sim.Crash(2);  // One backup down: f=1 tolerated.
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond));
  cluster.CheckSafety();
}

TEST(PbftTest, CannotProgressBeyondF) {
  PbftCluster cluster(4);
  auto* client = cluster.AddClient(5);
  cluster.sim.Crash(2);
  cluster.sim.Crash(3);  // Two faults with f=1: no quorum of 3.
  cluster.sim.Start();
  EXPECT_FALSE(
      cluster.sim.RunUntil([&] { return client->done(); }, 10 * kSecond));
  EXPECT_EQ(client->completed(), 0);
  cluster.CheckSafety();
}

TEST(PbftTest, ViewChangeOnPrimaryCrash) {
  PbftCluster cluster(4);
  auto* client = cluster.AddClient(12);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 3; },
                                   30 * kSecond));
  cluster.sim.Crash(0);  // Primary of view 0.
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 120 * kSecond));
  cluster.CheckSafety();
  // The cluster moved to a view led by someone else.
  for (const PbftReplica* r : cluster.replicas) {
    if (r->id() == 0) continue;
    EXPECT_GT(r->view(), 0) << r->id();
  }
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

TEST(PbftTest, EquivocatingPrimaryCannotSplitState) {
  PbftCluster cluster(4, 1, /*byzantine_primary=*/0);
  auto* client = cluster.AddClient(8);
  cluster.sim.Start();
  // Progress requires deposing the equivocator via view change.
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  cluster.CheckSafety();
  auto* evil = dynamic_cast<EquivocatingPrimary*>(cluster.replicas[0]);
  EXPECT_GT(evil->equivocations, 0);
  // The evil command never committed anywhere.
  for (const PbftReplica* r : cluster.replicas) {
    if (cluster.sim.IsByzantine(r->id())) continue;
    EXPECT_FALSE(r->kv().Get("stolen").has_value()) << r->id();
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

TEST(PbftTest, MessageComplexityIsQuadratic) {
  // The deck: PBFT agreement is O(N^2) per request.
  auto messages_per_request = [](int n) {
    PbftCluster cluster(n);
    auto* client = cluster.AddClient(10);
    cluster.sim.Start();
    cluster.sim.RunUntil([&] { return client->done(); }, 120 * kSecond);
    EXPECT_TRUE(client->done()) << "n=" << n;
    uint64_t prepares = cluster.sim.stats().sent_by_type.at("prepare");
    uint64_t commits = cluster.sim.stats().sent_by_type.at("commit");
    return (prepares + commits) / 10.0;
  };
  double at4 = messages_per_request(4);
  double at7 = messages_per_request(7);
  double at10 = messages_per_request(10);
  // Quadratic growth: (n=10)/(n=4) messages should scale ~ (10/4)^2 = 6.25,
  // far beyond linear 2.5.
  EXPECT_GT(at7, at4 * 2.0);
  EXPECT_GT(at10 / at4, 4.0);
}

// A replica that slept through several checkpoints catches up by state
// transfer (f+1 matching histories) instead of replaying garbage-collected
// agreement messages.
TEST(PbftTest, RestartedReplicaCatchesUpViaStateTransfer) {
  PbftCluster cluster(4);
  auto* client = cluster.AddClient(40);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 5; },
                                   60 * kSecond));
  cluster.sim.Crash(2);  // A backup sleeps...
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 35; },
                                   240 * kSecond));
  // ...through at least one checkpoint (interval 16), past GC.
  EXPECT_GE(cluster.replicas[0]->stable_checkpoint(), 16u);
  cluster.sim.Restart(2);
  ASSERT_TRUE(cluster.sim.RunUntil(
      [&] {
        return client->done() &&
               cluster.replicas[2]->last_executed() >= 40u;
      },
      240 * kSecond));
  cluster.CheckSafety();
  EXPECT_EQ(*cluster.replicas[2]->kv().Get("x"), "40");
}

// A replica that missed a view change re-synchronizes via the relayed
// NewView proof.
TEST(PbftTest, RestartedReplicaLearnsNewView) {
  PbftCluster cluster(4);
  auto* client = cluster.AddClient(20);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 3; },
                                   60 * kSecond));
  cluster.sim.Crash(3);  // Backup down...
  cluster.sim.Crash(0);  // ...and the primary dies: view change to 1.
  cluster.sim.RunFor(2 * kSecond);
  cluster.sim.Restart(3);  // Restarted node still believes view 0.
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  cluster.sim.RunFor(2 * kSecond);
  cluster.CheckSafety();
  EXPECT_GT(cluster.replicas[3]->view(), 0);
}

TEST(PbftTest, BatchingFoldsConcurrentRequests) {
  PbftCluster cluster(4);
  // Rebuild with batching enabled: a fresh cluster (options differ).
  auto sim_owner = sim::Simulation::Builder(21).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  crypto::KeyRegistry registry(21, 16);
  pbft::PbftOptions opts;
  opts.n = 4;
  opts.registry = &registry;
  opts.batch_size = 8;
  opts.batch_delay = 3 * kMillisecond;
  std::vector<PbftReplica*> replicas;
  for (int i = 0; i < 4; ++i) replicas.push_back(sim.Spawn<PbftReplica>(opts));
  std::vector<smr::QuorumClient*> clients;
  for (int c = 0; c < 6; ++c) {
    clients.push_back(
        pbft::SpawnClient(&sim, 4, &registry, 6, "k" + std::to_string(c)));
  }
  sim.Start();
  ASSERT_TRUE(sim.RunUntil(
      [&] {
        for (auto* c : clients) {
          if (!c->done()) return false;
        }
        return true;
      },
      240 * kSecond));
  // 36 commands needed far fewer than 36 agreement instances.
  uint64_t preprepares = sim.stats().sent_by_type.at("pre-prepare");
  EXPECT_LT(preprepares / 4, 30u);  // Instances = pre-prepares / (n-1)... /4.
  // Every replica executed all 36 commands in an identical order.
  for (size_t a = 1; a < replicas.size(); ++a) {
    ASSERT_EQ(replicas[a]->executed_commands().size(), 36u);
    for (size_t i = 0; i < 36; ++i) {
      ASSERT_TRUE(replicas[a]->executed_commands()[i] ==
                  replicas[0]->executed_commands()[i]);
    }
  }
}

TEST(PbftTest, MultipleClientsInterleaveSafely) {
  PbftCluster cluster(7);  // f = 2.
  cluster.AddClient(8, "a");
  cluster.AddClient(8, "b");
  cluster.AddClient(8, "c");
  cluster.sim.Crash(5);
  cluster.sim.Crash(6);  // Full f = 2 crash faults.
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
  cluster.sim.RunFor(2 * kSecond);
  for (const PbftReplica* r : cluster.replicas) {
    if (cluster.sim.IsCrashed(r->id())) continue;
    EXPECT_EQ(*r->kv().Get("a"), "8");
    EXPECT_EQ(*r->kv().Get("b"), "8");
    EXPECT_EQ(*r->kv().Get("c"), "8");
  }
}

// Regression pin for a view-change deadlock found by the Byzantine sweep
// (pbft_byz seed 93, shrunk): a partition that strands the cluster
// mid-agreement, plus a crash/restart inside the minority side. Slots
// that lived through the resulting view-change storm held prepare votes
// from several views; one stale vote made a replica's PreparedProof fail
// verification, and ProcessNewView rejected ENTIRE new-view messages the
// builder considered fine — so no view ever installed again and the last
// request could never commit. The fix is vote hygiene per (view, digest)
// plus builder/receiver symmetry (both skip invalid proofs).
TEST(PbftTest, RecoversFromPartitionStraddlingViewChangeStorm) {
  PbftCluster cluster(4, /*seed=*/93);
  auto* client = cluster.AddClient(12);  // Client is process 4.
  cluster.sim.ScheduleAt(155 * kMillisecond,
                         [&] { cluster.sim.Partition({{0, 1, 4}, {2, 3}}); });
  cluster.sim.ScheduleAt(300 * kMillisecond, [&] { cluster.sim.Crash(2); });
  cluster.sim.ScheduleAt(1700 * kMillisecond, [&] { cluster.sim.Heal(); });
  cluster.sim.ScheduleAt(2000 * kMillisecond, [&] { cluster.sim.Restart(2); });
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 22 * kSecond));
  cluster.sim.RunFor(2 * kSecond);
  cluster.CheckSafety();
}

// A storm of view changes must not leave per-view bookkeeping behind:
// pending view-change message sets and built-new-view guards are GC'd up
// to the installed view, so their footprint reflects the CURRENT
// negotiation, not the storm's length.
TEST(PbftTest, ViewChangeStormKeepsBookkeepingBounded) {
  PbftCluster cluster(4);
  auto* client = cluster.AddClient(16);
  // Strand the cluster without a quorum for a while: every replica keeps
  // escalating its pending view, piling up view-change messages for many
  // distinct target views.
  cluster.sim.ScheduleAt(200 * kMillisecond,
                         [&] { cluster.sim.Partition({{0, 1, 4}, {2, 3}}); });
  cluster.sim.ScheduleAt(3200 * kMillisecond, [&] { cluster.sim.Heal(); });
  cluster.sim.Start();
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 60 * kSecond));
  cluster.sim.RunFor(2 * kSecond);
  cluster.CheckSafety();
  for (const PbftReplica* r : cluster.replicas) {
    // A handful of live entries (views above the installed one may still
    // be in flight) — but nothing proportional to the storm.
    EXPECT_LE(r->ViewChangeBookkeepingForTest(), 6u) << r->id();
  }
}

// After a view change installs, the deposed negotiation's escalation
// watchdog must die with it: a stale watchdog firing into the healthy new
// view would depose a perfectly live primary and churn views forever.
TEST(PbftTest, NoViewChurnAfterViewInstalls) {
  PbftCluster cluster(4);
  auto* client = cluster.AddClient(12);
  cluster.sim.Start();
  ASSERT_TRUE(cluster.sim.RunUntil([&] { return client->completed() >= 3; },
                                   30 * kSecond));
  cluster.sim.Crash(0);  // Primary of view 0: one view change to view 1.
  ASSERT_TRUE(
      cluster.sim.RunUntil([&] { return client->done(); }, 120 * kSecond));
  cluster.sim.RunFor(5 * kSecond);
  std::vector<int64_t> views;
  for (const PbftReplica* r : cluster.replicas) {
    if (cluster.sim.IsCrashed(r->id())) continue;
    views.push_back(r->view());
  }
  // Idle cluster, healthy primary: views must be frozen now.
  cluster.sim.RunFor(10 * kSecond);
  size_t i = 0;
  for (const PbftReplica* r : cluster.replicas) {
    if (cluster.sim.IsCrashed(r->id())) continue;
    EXPECT_EQ(r->view(), views[i++]) << "view churned while idle: replica "
                                     << r->id();
  }
  cluster.CheckSafety();
}

}  // namespace
}  // namespace consensus40::pbft
