// F16 — XFT: crash-fault prices for Byzantine-grade protection, plus the
// anarchy boundary map.

#include <cstdio>

#include "common/table.h"
#include "crypto/signatures.h"
#include "sim/simulation.h"
#include "xft/xft.h"

using namespace consensus40;

int main() {
  std::printf("==== F16: XFT / XPaxos ====\n\n");

  std::printf("-- common case (n = 5, sg = 3 replicas, fixed 1ms hops) --\n");
  {
    sim::NetworkOptions net;
    net.min_delay = net.max_delay = 1 * sim::kMillisecond;
    auto sim_owner =
        sim::Simulation::Builder(1).Network(net).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;
    crypto::KeyRegistry registry(1, 12);
    xft::XftOptions opts;
    opts.n = 5;
    opts.registry = &registry;
    std::vector<xft::XftReplica*> replicas;
    for (int i = 0; i < 5; ++i) {
      replicas.push_back(sim.Spawn<xft::XftReplica>(opts));
    }
    auto* client = xft::SpawnClient(&sim, 5, &registry, 20);
    sim.Start();
    sim::Time t0 = sim.now();
    sim.RunUntil([&] { return client->done(); }, 240 * sim::kSecond);
    const auto& types = sim.stats().sent_by_type;
    TextTable t({"metric", "value"});
    t.AddRow({"replicas", "5 (= 2f+1, not 3f+1)"});
    t.AddRow({"active per request", "3 (the synchronous group)"});
    t.AddRow({"prepares sent", TextTable::Int(types.at("xft-prepare"))});
    t.AddRow({"commits sent", TextTable::Int(types.at("xft-commit"))});
    t.AddRow({"latency per command (ms)",
              TextTable::Num((sim.now() - t0) / 1000.0 / 20.0, 1)});
    std::printf("%s\n", t.ToString().c_str());
    std::printf("Two phases among f+1 replicas — Paxos-grade cost — while\n"
                "signatures keep Byzantine replicas accountable. Passive\n"
                "replicas learn lazily (%llu xft-update messages).\n\n",
                static_cast<unsigned long long>(types.at("xft-update")));
  }

  std::printf("-- view change reconfigures the synchronous group --\n");
  {
    auto sim_owner = sim::Simulation::Builder(2).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;
    crypto::KeyRegistry registry(2, 12);
    xft::XftOptions opts;
    opts.n = 5;
    opts.registry = &registry;
    std::vector<xft::XftReplica*> replicas;
    for (int i = 0; i < 5; ++i) {
      replicas.push_back(sim.Spawn<xft::XftReplica>(opts));
    }
    auto* client = xft::SpawnClient(&sim, 5, &registry, 16);
    sim.Start();
    sim.RunUntil([&] { return client->completed() >= 5; }, 120 * sim::kSecond);
    std::printf("sg(view 0) = {0,1,2}; crashing member 1...\n");
    sim.Crash(1);
    sim.RunUntil([&] { return client->done(); }, 600 * sim::kSecond);
    int64_t view = 0;
    for (auto* r : replicas) {
      if (r->id() != 1) view = std::max(view, r->view());
    }
    std::printf("new view %lld, sg(view %lld) = {", static_cast<long long>(view),
                static_cast<long long>(view));
    for (sim::NodeId m : replicas[0]->SyncGroup(view)) std::printf("%d ", m);
    std::printf("} — workload completed: %d/16, results in order: %s\n\n",
                client->completed(), [&] {
                  for (int i = 0; i < 16; ++i) {
                    if (client->results()[i] != std::to_string(i + 1)) {
                      return "NO";
                    }
                  }
                  return "yes";
                }());
  }

  std::printf("-- the anarchy map (n = 5): when does XFT lose safety? --\n");
  {
    TextTable t({"crash c", "Byzantine m", "partitioned p", "c+m+p",
                 "in anarchy?"});
    for (int c = 0; c <= 3; ++c) {
      for (int m = 0; m <= 2; ++m) {
        for (int p = 0; p <= 1; ++p) {
          if (c + m + p > 4) continue;
          t.AddRow({TextTable::Int(c), TextTable::Int(m), TextTable::Int(p),
                    TextTable::Int(c + m + p),
                    xft::InAnarchy(5, c, m, p) ? "ANARCHY" : "safe"});
        }
      }
    }
    std::printf("%s\n", t.ToString().c_str());
    std::printf("Anarchy needs BOTH m > 0 and c+m+p > floor((n-1)/2): pure\n"
                "crashes never violate safety, and a minority of mixed\n"
                "faults doesn't either — XFT's bet is that 'Byzantine fault\n"
                "AND network partition at the same time' is rare.\n");
  }
  return 0;
}
