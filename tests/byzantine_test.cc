// Systematic Byzantine adversaries across the BFT protocols: silent
// replicas, equivocating leaders, vote equivocators, and lying repliers.
// Every scenario asserts the same two things: honest replicas never
// diverge, and clients never accept a corrupted result.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crypto/signatures.h"
#include "hotstuff/hotstuff.h"
#include "minbft/minbft.h"
#include "pbft/pbft.h"
#include "sim/simulation.h"
#include "smr/quorum_client.h"
#include "zyzzyva/zyzzyva.h"

namespace consensus40 {
namespace {

using sim::kMillisecond;
using sim::kSecond;

// ---------------------------------------------------------------------------
// HotStuff: equivocating leader
// ---------------------------------------------------------------------------

/// A HotStuff leader that proposes TWO different blocks in its view, one to
/// each half of the cluster. Votes are per-view (replicas vote at most once
/// per height), so at most one block can gather a quorum certificate.
class EquivocatingHotStuffLeader : public hotstuff::HotStuffReplica {
 public:
  explicit EquivocatingHotStuffLeader(hotstuff::HotStuffOptions options)
      : HotStuffReplica(options), options_copy_(options) {}

  int equivocations = 0;

  void OnMessage(sim::NodeId from, const sim::Message& msg) override {
    // Intercept our own proposal broadcasts indirectly: act honestly except
    // when we are about to propose — detected via the request path.
    HotStuffReplica::OnMessage(from, msg);
  }

  /// Called by the test to fire a double proposal at the current view.
  void DoubleProposeNow(const smr::Command& cmd_a,
                        const crypto::Signature& sig_a,
                        const smr::Command& cmd_b,
                        const crypto::Signature& sig_b) {
    ++equivocations;
    uint64_t view = current_view();
    for (int half = 0; half < 2; ++half) {
      hotstuff::Block block;
      block.height = view;
      block.parent = crypto::Digest{};  // Genesis parent (early view).
      block.justify = hotstuff::QuorumCert{};
      if (half == 0) {
        block.cmds = {cmd_a};
        block.cmd_sigs = {sig_a};
      } else {
        block.cmds = {cmd_b};
        block.cmd_sigs = {sig_b};
      }
      auto proposal = std::make_shared<ProposalMsg>();
      proposal->block = block;
      for (int r = half; r < options_copy_.n; r += 2) {
        Send(r, proposal);
      }
    }
  }

 private:
  hotstuff::HotStuffOptions options_copy_;
};

TEST(ByzantineHotStuffTest, EquivocatingLeaderCannotForkTheChain) {
  auto sim_owner = sim::Simulation::Builder(5).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  crypto::KeyRegistry registry(5, 16);
  hotstuff::HotStuffOptions opts;
  opts.n = 4;
  opts.registry = &registry;
  std::vector<hotstuff::HotStuffReplica*> replicas;
  auto* evil = sim.Spawn<EquivocatingHotStuffLeader>(opts);
  replicas.push_back(evil);
  sim.MarkByzantine(evil->id());
  for (int i = 1; i < 4; ++i) {
    replicas.push_back(sim.Spawn<hotstuff::HotStuffReplica>(opts));
  }
  auto* client = hotstuff::SpawnClient(&sim, 4, &registry, 6);
  sim.Start();

  // Fire double proposals repeatedly during the run.
  smr::Command cmd_a{client->id(), 901, "PUT fork A"};
  smr::Command cmd_b{client->id(), 902, "PUT fork B"};
  crypto::Signature sig_a = registry.Sign(client->id(), cmd_a.Hash());
  crypto::Signature sig_b = registry.Sign(client->id(), cmd_b.Hash());
  for (int k = 0; k < 5; ++k) {
    sim.ScheduleAfter((50 + 100 * k) * kMillisecond, [&, k] {
      evil->DoubleProposeNow(cmd_a, sig_a, cmd_b, sig_b);
    });
  }
  ASSERT_TRUE(sim.RunUntil([&] { return client->done(); }, 600 * kSecond));
  sim.RunFor(2 * kSecond);

  // Honest replicas share one history; "fork" never committed twice
  // divergently.
  for (size_t a = 1; a < replicas.size(); ++a) {
    for (size_t b = a + 1; b < replicas.size(); ++b) {
      const auto& ca = replicas[a]->executed_commands();
      const auto& cb = replicas[b]->executed_commands();
      size_t overlap = std::min(ca.size(), cb.size());
      for (size_t i = 0; i < overlap; ++i) {
        ASSERT_TRUE(ca[i] == cb[i]) << a << "," << b << " diverge at " << i;
      }
    }
    EXPECT_TRUE(replicas[a]->violations().empty());
  }
  EXPECT_GT(evil->equivocations, 0);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1));
  }
}

// ---------------------------------------------------------------------------
// Lying repliers: a Byzantine replica sends corrupted results to clients
// ---------------------------------------------------------------------------

/// Turns `liar` into a replica that participates honestly in agreement
/// but LIES to clients: every reply it sends reads "666". Returns the
/// count of lies told.
std::shared_ptr<int> MakeLiar(sim::Simulation* sim, sim::NodeId liar) {
  auto lies = std::make_shared<int>(0);
  sim->MarkByzantine(liar);
  sim->SetInterposeFn([liar, lies](sim::NodeId from, sim::NodeId,
                                   const sim::MessagePtr& msg) {
    const auto* reply = dynamic_cast<const smr::BftReplyMsg*>(msg.get());
    if (from != liar || reply == nullptr) return msg;
    ++*lies;
    return sim::MessagePtr(std::make_shared<smr::BftReplyMsg>(
        reply->client_seq, reply->replica, "666", reply->view));
  });
  return lies;
}

/// One protocol under test: spawns its honest cluster and a client for
/// 10 requests.
struct LiarCase {
  const char* name;
  std::function<smr::QuorumClient*(sim::Simulation*, crypto::KeyRegistry*,
                                   crypto::Usig*)>
      build;
};

class ByzantineRepliesTest : public ::testing::TestWithParam<LiarCase> {};

TEST_P(ByzantineRepliesTest, ClientRejectsMinorityLies) {
  auto sim_owner = sim::Simulation::Builder(7).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  crypto::KeyRegistry registry(7, 16);
  crypto::Usig usig(&registry);
  smr::QuorumClient* client = GetParam().build(&sim, &registry, &usig);
  std::shared_ptr<int> lies = MakeLiar(&sim, 1);
  sim.Start();
  ASSERT_TRUE(sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  EXPECT_GT(*lies, 0);
  // Client accepted only the true counter values: the matching-reply
  // quorum filtered every "666".
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ByzantineRepliesTest,
    ::testing::Values(
        // n=4, quorum 2; the client follows the primary.
        LiarCase{"pbft",
                 [](sim::Simulation* sim, crypto::KeyRegistry* registry,
                    crypto::Usig*) {
                   pbft::PbftOptions opts;
                   opts.n = 4;
                   opts.registry = registry;
                   for (int i = 0; i < 4; ++i) {
                     sim->Spawn<pbft::PbftReplica>(opts);
                   }
                   return pbft::SpawnClient(sim, 4, registry, 10);
                 }},
        // n=3, quorum 2: the two honest replicas must carry every result.
        LiarCase{"minbft",
                 [](sim::Simulation* sim, crypto::KeyRegistry* registry,
                    crypto::Usig* usig) {
                   minbft::MinBftOptions opts;
                   opts.n = 3;
                   opts.registry = registry;
                   opts.usig = usig;
                   for (int i = 0; i < 3; ++i) {
                     sim->Spawn<minbft::MinBftReplica>(opts);
                   }
                   return minbft::SpawnClient(sim, 3, registry, 10);
                 }},
        // n=4, quorum 2, leaderless broadcast.
        LiarCase{"hotstuff",
                 [](sim::Simulation* sim, crypto::KeyRegistry* registry,
                    crypto::Usig*) {
                   hotstuff::HotStuffOptions opts;
                   opts.n = 4;
                   opts.registry = registry;
                   for (int i = 0; i < 4; ++i) {
                     sim->Spawn<hotstuff::HotStuffReplica>(opts);
                   }
                   return hotstuff::SpawnClient(sim, 4, registry, 10);
                 }}),
    [](const ::testing::TestParamInfo<LiarCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Silent replicas: liveness at exactly f, loss beyond f
// ---------------------------------------------------------------------------

template <typename Cluster>
struct SilenceBudget {
  int n;
  int f;
};

TEST(ByzantineSilenceTest, PbftBoundary) {
  // f silent replicas: fine. f+1: stuck. (Silence == crash for liveness.)
  for (int silent = 1; silent <= 2; ++silent) {
    auto sim_owner = sim::Simulation::Builder(9).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;
    crypto::KeyRegistry registry(9, 16);
    pbft::PbftOptions opts;
    opts.n = 4;
    opts.registry = &registry;
    for (int i = 0; i < 4; ++i) sim.Spawn<pbft::PbftReplica>(opts);
    auto* client = pbft::SpawnClient(&sim, 4, &registry, 3);
    for (int s = 0; s < silent; ++s) sim.Crash(3 - s);
    sim.Start();
    bool done = sim.RunUntil([&] { return client->done(); }, 30 * kSecond);
    if (silent <= 1) {
      EXPECT_TRUE(done) << "silent=" << silent;
    } else {
      EXPECT_FALSE(done) << "silent=" << silent;
    }
  }
}

TEST(ByzantineSilenceTest, MinBftBoundary) {
  for (int silent = 1; silent <= 2; ++silent) {
    auto sim_owner = sim::Simulation::Builder(9).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;
    crypto::KeyRegistry registry(9, 16);
    crypto::Usig usig(&registry);
    minbft::MinBftOptions opts;
    opts.n = 3;
    opts.registry = &registry;
    opts.usig = &usig;
    for (int i = 0; i < 3; ++i) sim.Spawn<minbft::MinBftReplica>(opts);
    auto* client = minbft::SpawnClient(&sim, 3, &registry, 3);
    for (int s = 0; s < silent; ++s) sim.Crash(2 - s);
    sim.Start();
    bool done = sim.RunUntil([&] { return client->done(); }, 30 * kSecond);
    if (silent <= 1) {
      EXPECT_TRUE(done) << "silent=" << silent;
    } else {
      EXPECT_FALSE(done) << "silent=" << silent;
    }
  }
}

// ---------------------------------------------------------------------------
// Zyzzyva: a replica serving divergent speculative responses
// ---------------------------------------------------------------------------

/// Zyzzyva backup that corrupts its speculative responses (wrong result +
/// wrong history). The client must never count it toward a quorum, forcing
/// case-2 commits that exclude it.
class CorruptZyzzyvaBackup : public zyzzyva::ZyzzyvaReplica {
 public:
  explicit CorruptZyzzyvaBackup(zyzzyva::ZyzzyvaOptions options)
      : ZyzzyvaReplica(options) {}

  void OnMessage(sim::NodeId from, const sim::Message& msg) override {
    if (const auto* m = dynamic_cast<const OrderReqMsg*>(&msg)) {
      // Execute dishonestly: reply with garbage, signed by ourselves (the
      // signature is valid, the CONTENT is wrong).
      auto resp = std::make_shared<SpecResponseMsg>();
      resp->seq = m->seq;
      resp->client_seq = m->cmd.client_seq;
      resp->history = crypto::Sha256::Hash("fabricated history");
      resp->result = "666";
      resp->replica = id();
      resp->sig = options_.registry->Sign(id(), resp->SigningDigest());
      Send(m->cmd.client, resp);
      return;
    }
    ZyzzyvaReplica::OnMessage(from, msg);
  }
};

TEST(ByzantineZyzzyvaTest, CorruptSpeculationForcesCase2NotCorruption) {
  auto sim_owner = sim::Simulation::Builder(13).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  crypto::KeyRegistry registry(13, 16);
  zyzzyva::ZyzzyvaOptions opts;
  opts.n = 4;
  opts.registry = &registry;
  std::vector<zyzzyva::ZyzzyvaReplica*> replicas;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(sim.Spawn<zyzzyva::ZyzzyvaReplica>(opts));
  }
  auto* corrupt = sim.Spawn<CorruptZyzzyvaBackup>(opts);
  replicas.push_back(corrupt);
  sim.MarkByzantine(corrupt->id());
  auto* client = sim.Spawn<zyzzyva::ZyzzyvaClient>(4, &registry, 8);
  sim.Start();
  ASSERT_TRUE(sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  // Every request needed the commit-certificate path (only 3 honest
  // matching responses), and every accepted result is correct.
  EXPECT_EQ(client->case1_completions(), 0);
  EXPECT_EQ(client->case2_completions(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

}  // namespace
}  // namespace consensus40
