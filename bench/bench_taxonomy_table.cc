// T1 — The tutorial's protocol taxonomy cards, regenerated.
//
// Part 1 prints the static five-aspect table exactly as the deck presents
// it (synchrony / failure model / strategy / awareness / nodes / phases /
// complexity). Part 2 *measures* the claimed node counts, phase counts and
// per-command message bills by actually running each implemented protocol
// at f = 1 on a fixed-delay network.

#include <cstdio>
#include <memory>

#include "common/table.h"
#include "core/traits.h"
#include "crypto/signatures.h"
#include "hotstuff/hotstuff.h"
#include "minbft/minbft.h"
#include "paxos/multi_paxos.h"
#include "pbft/pbft.h"
#include "sim/simulation.h"
#include "zyzzyva/zyzzyva.h"

using namespace consensus40;

namespace {

struct Measured {
  int n;
  double messages_per_cmd;
  double latency_ms;  ///< Client-observed, fixed 1ms hops.
};

std::unique_ptr<sim::Simulation> MakeFixedDelaySim(uint64_t seed) {
  sim::NetworkOptions net;
  net.min_delay = 1 * sim::kMillisecond;
  net.max_delay = 1 * sim::kMillisecond;
  return sim::Simulation::Builder(seed).Network(net).AutoStart(false).Build();
}

Measured MeasureMultiPaxos() {
  auto sim_owner = MakeFixedDelaySim(1);
  sim::Simulation& sim = *sim_owner;
  paxos::MultiPaxosOptions opts;
  opts.n = 3;
  for (int i = 0; i < opts.n; ++i) sim.Spawn<paxos::MultiPaxosReplica>(opts);
  auto* client = sim.Spawn<paxos::MultiPaxosClient>(opts.n, 20);
  sim.Start();
  sim.RunUntil([&] { return client->completed() >= 10; }, 60 * sim::kSecond);
  sim.stats().Reset();
  sim::Time t0 = sim.now();
  sim.RunUntil([&] { return client->done(); }, 60 * sim::kSecond);
  double cmds = 10;
  // Subtract heartbeat chatter: count only request-path message types.
  const auto& types = sim.stats().sent_by_type;
  uint64_t useful = 0;
  for (const char* type : {"request", "accept", "accepted", "commit", "reply"}) {
    auto it = types.find(type);
    if (it != types.end()) useful += it->second;
  }
  return {opts.n, useful / cmds,
          static_cast<double>(sim.now() - t0) / sim::kMillisecond / cmds};
}

/// `spawn_client(sim)` spawns the protocol's client for 20 "INC x" ops.
template <typename Replica, typename Options, typename SpawnClientFn>
Measured MeasureBft(int n, Options opts, SpawnClientFn spawn_client) {
  auto sim_owner = MakeFixedDelaySim(1);
  sim::Simulation& sim = *sim_owner;
  for (int i = 0; i < n; ++i) sim.Spawn<Replica>(opts);
  auto* client = spawn_client(&sim);
  sim.Start();
  sim.RunUntil([&] { return client->completed() >= 10; }, 120 * sim::kSecond);
  sim.stats().Reset();
  sim::Time t0 = sim.now();
  sim.RunUntil([&] { return client->done(); }, 240 * sim::kSecond);
  return {n, sim.stats().messages_sent / 10.0,
          static_cast<double>(sim.now() - t0) / sim::kMillisecond / 10.0};
}

}  // namespace

int main() {
  std::printf("==== T1: protocol taxonomy (the deck's five aspects) ====\n\n");
  TextTable table({"protocol", "synchrony", "failure", "strategy",
                   "awareness", "nodes", "n(f=1)", "phases", "complexity"});
  for (const core::ProtocolTraits& t : core::AllProtocolTraits()) {
    int n1 = t.nodes_required(1, 0);
    table.AddRow({t.name, core::ToString(t.synchrony),
                  core::ToString(t.failure_model), core::ToString(t.strategy),
                  core::ToString(t.awareness), t.nodes_formula,
                  n1 < 0 ? "?" : TextTable::Int(n1), t.phases, t.complexity});
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("==== T1b: measured, f = 1, fixed 1ms hops, steady state ====\n\n");
  TextTable measured({"protocol", "replicas", "msgs/cmd", "latency (ms)"});

  Measured mp = MeasureMultiPaxos();
  measured.AddRow({"Multi-Paxos", TextTable::Int(mp.n),
                   TextTable::Num(mp.messages_per_cmd, 1),
                   TextTable::Num(mp.latency_ms, 1)});

  {
    crypto::KeyRegistry registry(1, 16);
    pbft::PbftOptions opts;
    opts.n = 4;
    opts.registry = &registry;
    Measured m =
        MeasureBft<pbft::PbftReplica>(4, opts, [&](sim::Simulation* s) {
          return pbft::SpawnClient(s, 4, &registry, 20);
        });
    measured.AddRow({"PBFT", TextTable::Int(m.n),
                     TextTable::Num(m.messages_per_cmd, 1),
                     TextTable::Num(m.latency_ms, 1)});
  }
  {
    crypto::KeyRegistry registry(1, 16);
    zyzzyva::ZyzzyvaOptions opts;
    opts.n = 4;
    opts.registry = &registry;
    Measured m =
        MeasureBft<zyzzyva::ZyzzyvaReplica>(4, opts, [&](sim::Simulation* s) {
          return s->Spawn<zyzzyva::ZyzzyvaClient>(4, &registry, 20);
        });
    measured.AddRow({"Zyzzyva (case 1)", TextTable::Int(m.n),
                     TextTable::Num(m.messages_per_cmd, 1),
                     TextTable::Num(m.latency_ms, 1)});
  }
  {
    crypto::KeyRegistry registry(1, 16);
    crypto::Usig usig(&registry);
    minbft::MinBftOptions opts;
    opts.n = 3;
    opts.registry = &registry;
    opts.usig = &usig;
    Measured m =
        MeasureBft<minbft::MinBftReplica>(3, opts, [&](sim::Simulation* s) {
          return minbft::SpawnClient(s, 3, &registry, 20);
        });
    measured.AddRow({"MinBFT", TextTable::Int(m.n),
                     TextTable::Num(m.messages_per_cmd, 1),
                     TextTable::Num(m.latency_ms, 1)});
  }
  {
    crypto::KeyRegistry registry(1, 16);
    hotstuff::HotStuffOptions opts;
    opts.n = 4;
    opts.registry = &registry;
    Measured m =
        MeasureBft<hotstuff::HotStuffReplica>(4, opts, [&](sim::Simulation* s) {
          return hotstuff::SpawnClient(s, 4, &registry, 20);
        });
    measured.AddRow({"HotStuff (chained)", TextTable::Int(m.n),
                     TextTable::Num(m.messages_per_cmd, 1),
                     TextTable::Num(m.latency_ms, 1)});
  }
  std::printf("%s\n", measured.ToString().c_str());
  std::printf("Reading: MinBFT matches Paxos's 2f+1=3 replicas (the USIG at\n"
              "work); PBFT needs 3f+1=4 and the quadratic prepare/commit;\n"
              "Zyzzyva's speculative fast path is the cheapest BFT per\n"
              "command; chained HotStuff pays ~3 extra pipeline blocks of\n"
              "latency per command at idle but stays linear in n.\n");
  return 0;
}
