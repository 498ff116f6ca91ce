// Cross-protocol property sweep: every state-machine-replication protocol
// in the library is subjected to the same randomized fault schedules
// (crashes, restarts, partitions at random times) across seeds, and must
// uphold the same two invariants:
//
//   SAFETY      — committed command sequences of correct replicas are
//                 prefixes of one another, and the closed-loop client's
//                 results are exactly 1..N (nothing lost, doubled, or
//                 reordered);
//   TERMINATION — once faults stop within the protocol's tolerance, the
//                 workload completes.
//
// The sweep is the repo's strongest evidence that the implementations are
// not merely demo-shaped: each protocol runs the same gauntlet.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "crypto/signatures.h"
#include "hotstuff/hotstuff.h"
#include "minbft/minbft.h"
#include "paxos/multi_paxos.h"
#include "pbft/pbft.h"
#include "raft/raft.h"
#include "sim/simulation.h"
#include "xft/xft.h"

namespace consensus40 {
namespace {

using sim::kMillisecond;
using sim::kSecond;

/// A protocol-under-test adapter: spawns a cluster + one client, exposes
/// progress and the committed sequences.
struct Adapter {
  std::string name;
  int n;                    ///< Cluster size.
  bool tolerates_restart;   ///< Protocol recovers crashed replicas.
  /// Builds the cluster into `sim` and returns accessors.
  std::function<void(sim::Simulation*, int ops)> build;
  std::function<int()> completed;
  std::function<bool()> done;
  std::function<std::vector<std::string>()> results;
  std::function<std::vector<std::vector<smr::Command>>()> committed;
};

// Shared per-run state (recreated for every test case).
struct Fixture {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<crypto::KeyRegistry> registry;
  std::unique_ptr<crypto::Usig> usig;
};

Adapter MultiPaxosAdapter(Fixture* fx) {
  Adapter a;
  a.name = "multi-paxos";
  a.n = 5;
  a.tolerates_restart = true;
  auto replicas = std::make_shared<std::vector<paxos::MultiPaxosReplica*>>();
  auto client = std::make_shared<paxos::MultiPaxosClient*>(nullptr);
  a.build = [fx, replicas, client](sim::Simulation* sim, int ops) {
    paxos::MultiPaxosOptions opts;
    opts.n = 5;
    for (int i = 0; i < 5; ++i) {
      replicas->push_back(sim->Spawn<paxos::MultiPaxosReplica>(opts));
    }
    *client = sim->Spawn<paxos::MultiPaxosClient>(5, ops);
    (void)fx;
  };
  a.completed = [client] { return (*client)->completed(); };
  a.done = [client] { return (*client)->done(); };
  a.results = [client] { return (*client)->results(); };
  a.committed = [replicas] {
    std::vector<std::vector<smr::Command>> out;
    for (auto* r : *replicas) out.push_back(r->log().CommittedPrefix());
    return out;
  };
  return a;
}

Adapter RaftAdapter(Fixture* fx) {
  Adapter a;
  a.name = "raft";
  a.n = 5;
  a.tolerates_restart = true;
  auto replicas = std::make_shared<std::vector<raft::RaftReplica*>>();
  auto client = std::make_shared<raft::RaftClient*>(nullptr);
  a.build = [fx, replicas, client](sim::Simulation* sim, int ops) {
    raft::RaftOptions opts;
    opts.n = 5;
    for (int i = 0; i < 5; ++i) {
      replicas->push_back(sim->Spawn<raft::RaftReplica>(opts));
    }
    *client = sim->Spawn<raft::RaftClient>(5, ops);
    (void)fx;
  };
  a.completed = [client] { return (*client)->completed(); };
  a.done = [client] { return (*client)->done(); };
  a.results = [client] { return (*client)->results(); };
  a.committed = [replicas] {
    std::vector<std::vector<smr::Command>> out;
    for (auto* r : *replicas) out.push_back(r->CommittedCommands());
    return out;
  };
  return a;
}

Adapter PbftAdapter(Fixture* fx) {
  Adapter a;
  a.name = "pbft";
  a.n = 4;
  a.tolerates_restart = true;  // Checkpoints + state transfer.
  auto replicas = std::make_shared<std::vector<pbft::PbftReplica*>>();
  auto client = std::make_shared<smr::QuorumClient*>(nullptr);
  a.build = [fx, replicas, client](sim::Simulation* sim, int ops) {
    pbft::PbftOptions opts;
    opts.n = 4;
    opts.checkpoint_interval = 4;  // Frequent checkpoints: fast catch-up.
    opts.registry = fx->registry.get();
    for (int i = 0; i < 4; ++i) {
      replicas->push_back(sim->Spawn<pbft::PbftReplica>(opts));
    }
    *client = pbft::SpawnClient(sim, 4, fx->registry.get(), ops);
  };
  a.completed = [client] { return (*client)->completed(); };
  a.done = [client] { return (*client)->done(); };
  a.results = [client] { return (*client)->results(); };
  a.committed = [replicas] {
    std::vector<std::vector<smr::Command>> out;
    for (auto* r : *replicas) out.push_back(r->executed_commands());
    return out;
  };
  return a;
}

Adapter MinBftAdapter(Fixture* fx) {
  Adapter a;
  a.name = "minbft";
  a.n = 3;
  a.tolerates_restart = false;
  auto replicas = std::make_shared<std::vector<minbft::MinBftReplica*>>();
  auto client = std::make_shared<smr::QuorumClient*>(nullptr);
  a.build = [fx, replicas, client](sim::Simulation* sim, int ops) {
    minbft::MinBftOptions opts;
    opts.n = 3;
    opts.registry = fx->registry.get();
    opts.usig = fx->usig.get();
    for (int i = 0; i < 3; ++i) {
      replicas->push_back(sim->Spawn<minbft::MinBftReplica>(opts));
    }
    *client = minbft::SpawnClient(sim, 3, fx->registry.get(), ops);
  };
  a.completed = [client] { return (*client)->completed(); };
  a.done = [client] { return (*client)->done(); };
  a.results = [client] { return (*client)->results(); };
  a.committed = [replicas] {
    std::vector<std::vector<smr::Command>> out;
    for (auto* r : *replicas) out.push_back(r->executed_commands());
    return out;
  };
  return a;
}

Adapter HotStuffAdapter(Fixture* fx) {
  Adapter a;
  a.name = "hotstuff";
  a.n = 4;
  a.tolerates_restart = false;
  auto replicas = std::make_shared<std::vector<hotstuff::HotStuffReplica*>>();
  auto client = std::make_shared<smr::QuorumClient*>(nullptr);
  a.build = [fx, replicas, client](sim::Simulation* sim, int ops) {
    hotstuff::HotStuffOptions opts;
    opts.n = 4;
    opts.registry = fx->registry.get();
    for (int i = 0; i < 4; ++i) {
      replicas->push_back(sim->Spawn<hotstuff::HotStuffReplica>(opts));
    }
    *client = hotstuff::SpawnClient(sim, 4, fx->registry.get(), ops);
  };
  a.completed = [client] { return (*client)->completed(); };
  a.done = [client] { return (*client)->done(); };
  a.results = [client] { return (*client)->results(); };
  a.committed = [replicas] {
    std::vector<std::vector<smr::Command>> out;
    for (auto* r : *replicas) out.push_back(r->executed_commands());
    return out;
  };
  return a;
}

Adapter XftAdapter(Fixture* fx) {
  Adapter a;
  a.name = "xft";
  a.n = 5;
  a.tolerates_restart = false;
  auto replicas = std::make_shared<std::vector<xft::XftReplica*>>();
  auto client = std::make_shared<smr::QuorumClient*>(nullptr);
  a.build = [fx, replicas, client](sim::Simulation* sim, int ops) {
    xft::XftOptions opts;
    opts.n = 5;
    opts.registry = fx->registry.get();
    for (int i = 0; i < 5; ++i) {
      replicas->push_back(sim->Spawn<xft::XftReplica>(opts));
    }
    *client = xft::SpawnClient(sim, 5, fx->registry.get(), ops);
  };
  a.completed = [client] { return (*client)->completed(); };
  a.done = [client] { return (*client)->done(); };
  a.results = [client] { return (*client)->results(); };
  a.committed = [replicas] {
    std::vector<std::vector<smr::Command>> out;
    for (auto* r : *replicas) out.push_back(r->executed_commands());
    return out;
  };
  return a;
}

using AdapterFactory = Adapter (*)(Fixture*);

struct SweepCase {
  const char* label;
  AdapterFactory factory;
};

class ProtocolSweep
    : public ::testing::TestWithParam<std::tuple<SweepCase, uint64_t>> {};

void CheckPrefixes(const Adapter& adapter,
                   const std::vector<std::vector<smr::Command>>& committed) {
  for (size_t a = 0; a < committed.size(); ++a) {
    for (size_t b = a + 1; b < committed.size(); ++b) {
      size_t overlap = std::min(committed[a].size(), committed[b].size());
      for (size_t i = 0; i < overlap; ++i) {
        ASSERT_TRUE(committed[a][i] == committed[b][i])
            << adapter.name << ": replicas " << a << " and " << b
            << " diverge at " << i;
      }
    }
  }
}

void CheckResults(const Adapter& adapter,
                  const std::vector<std::string>& results) {
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i], std::to_string(i + 1))
        << adapter.name << ": result " << i;
  }
}

// Gauntlet 1: one random crash (of a tolerated, non-restarting kind)
// mid-run.
TEST_P(ProtocolSweep, SingleRandomCrashMidRun) {
  auto [sweep_case, seed] = GetParam();
  Fixture fx;
  fx.sim = sim::Simulation::Builder(seed).AutoStart(false).Build();
  fx.registry = std::make_unique<crypto::KeyRegistry>(seed, 24);
  fx.usig = std::make_unique<crypto::Usig>(fx.registry.get());
  Adapter adapter = sweep_case.factory(&fx);

  const int kOps = 15;
  adapter.build(fx.sim.get(), kOps);
  fx.sim->Start();

  // Crash one random replica once the workload is under way. Every
  // protocol in the sweep tolerates one crash fault.
  Rng rng(seed * 31 + 7);
  int victim = static_cast<int>(rng.NextBounded(adapter.n));
  ASSERT_TRUE(fx.sim->RunUntil([&] { return adapter.completed() >= 4; },
                               240 * kSecond))
      << adapter.name;
  fx.sim->Crash(victim);

  ASSERT_TRUE(fx.sim->RunUntil([&] { return adapter.done(); },
                               600 * kSecond))
      << adapter.name << " stalled after crashing replica " << victim;
  CheckResults(adapter, adapter.results());
  CheckPrefixes(adapter, adapter.committed());
}

// Gauntlet 2: a transient full partition (every node isolated) that heals.
TEST_P(ProtocolSweep, TransientTotalPartition) {
  auto [sweep_case, seed] = GetParam();
  Fixture fx;
  fx.sim = sim::Simulation::Builder(seed + 1000).AutoStart(false).Build();
  fx.registry = std::make_unique<crypto::KeyRegistry>(seed + 1000, 24);
  fx.usig = std::make_unique<crypto::Usig>(fx.registry.get());
  Adapter adapter = sweep_case.factory(&fx);

  const int kOps = 12;
  adapter.build(fx.sim.get(), kOps);
  fx.sim->Start();
  ASSERT_TRUE(fx.sim->RunUntil([&] { return adapter.completed() >= 3; },
                               240 * kSecond))
      << adapter.name;
  // Isolate everyone (group per node) for 2 simulated seconds.
  std::vector<std::vector<sim::NodeId>> groups;
  for (int i = 0; i < adapter.n; ++i) groups.push_back({i});
  fx.sim->Partition(groups);
  fx.sim->RunFor(2 * kSecond);
  int frozen = adapter.completed();
  fx.sim->Heal();

  ASSERT_TRUE(fx.sim->RunUntil([&] { return adapter.done(); },
                               600 * kSecond))
      << adapter.name << " did not resume after healing (stuck at "
      << frozen << ")";
  CheckResults(adapter, adapter.results());
  CheckPrefixes(adapter, adapter.committed());
}

// Gauntlet 3: random message-delay turbulence (heavy jitter, no loss).
TEST_P(ProtocolSweep, HeavyDelayJitter) {
  auto [sweep_case, seed] = GetParam();
  Fixture fx;
  sim::NetworkOptions net;
  net.min_delay = 1 * kMillisecond;
  net.max_delay = 80 * kMillisecond;  // Heavy asynchrony vs ~100ms timers.
  fx.sim =
      sim::Simulation::Builder(seed + 2000).Network(net).AutoStart(false).Build();
  fx.registry = std::make_unique<crypto::KeyRegistry>(seed + 2000, 24);
  fx.usig = std::make_unique<crypto::Usig>(fx.registry.get());
  Adapter adapter = sweep_case.factory(&fx);

  const int kOps = 10;
  adapter.build(fx.sim.get(), kOps);
  fx.sim->Start();
  ASSERT_TRUE(fx.sim->RunUntil([&] { return adapter.done(); },
                               900 * kSecond))
      << adapter.name;
  CheckResults(adapter, adapter.results());
  CheckPrefixes(adapter, adapter.committed());
}

// Gauntlet 4 (crash-recovery protocols only): crash + restart churn.
TEST_P(ProtocolSweep, CrashRestartChurn) {
  auto [sweep_case, seed] = GetParam();
  Fixture fx;
  fx.sim = sim::Simulation::Builder(seed + 3000).AutoStart(false).Build();
  fx.registry = std::make_unique<crypto::KeyRegistry>(seed + 3000, 24);
  fx.usig = std::make_unique<crypto::Usig>(fx.registry.get());
  Adapter adapter = sweep_case.factory(&fx);
  if (!adapter.tolerates_restart) {
    GTEST_SKIP() << adapter.name << " has no state-transfer/recovery path";
  }

  const int kOps = 15;
  adapter.build(fx.sim.get(), kOps);
  fx.sim->Start();
  Rng rng(seed * 77 + 13);
  // Three rounds of: crash a random node, run, restart it, run.
  for (int round = 0; round < 3; ++round) {
    int victim = static_cast<int>(rng.NextBounded(adapter.n));
    fx.sim->RunFor(
        static_cast<sim::Duration>(rng.NextBounded(400)) * kMillisecond);
    fx.sim->Crash(victim);
    fx.sim->RunFor(
        static_cast<sim::Duration>(300 + rng.NextBounded(500)) *
        kMillisecond);
    fx.sim->Restart(victim);
  }
  ASSERT_TRUE(fx.sim->RunUntil([&] { return adapter.done(); },
                               900 * kSecond))
      << adapter.name;
  CheckResults(adapter, adapter.results());
  CheckPrefixes(adapter, adapter.committed());
}

constexpr SweepCase kCases[] = {
    {"multi_paxos", &MultiPaxosAdapter}, {"raft", &RaftAdapter},
    {"pbft", &PbftAdapter},              {"minbft", &MinBftAdapter},
    {"hotstuff", &HotStuffAdapter},      {"xft", &XftAdapter},
};

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<SweepCase, uint64_t>>& info) {
  return std::string(std::get<0>(info.param).label) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Gauntlet, ProtocolSweep,
    ::testing::Combine(::testing::ValuesIn(kCases),
                       ::testing::Values(1u, 2u, 3u, 4u)),
    CaseName);

}  // namespace
}  // namespace consensus40
