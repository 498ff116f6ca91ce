// F14 + F15 — Trusted components: MinBFT's 2f+1/2-phase agreement and
// CheapBFT's f+1-active CheapTiny with the CheapSwitch fallback.

#include <cstdio>

#include "cheapbft/cheapbft.h"
#include "common/table.h"
#include "crypto/signatures.h"
#include "minbft/minbft.h"
#include "pbft/pbft.h"
#include "sim/simulation.h"

using namespace consensus40;

int main() {
  std::printf("==== F14: MinBFT (USIG trusted counter) ====\n\n");
  {
    TextTable t({"protocol", "replicas for f=1", "phases", "msgs/cmd",
                 "ms/cmd"});
    // MinBFT at n = 3.
    {
      sim::NetworkOptions net;
      net.min_delay = net.max_delay = 1 * sim::kMillisecond;
      auto sim_owner =
          sim::Simulation::Builder(1).Network(net).AutoStart(false).Build();
      sim::Simulation& sim = *sim_owner;
      crypto::KeyRegistry registry(1, 12);
      crypto::Usig usig(&registry);
      minbft::MinBftOptions opts;
      opts.n = 3;
      opts.registry = &registry;
      opts.usig = &usig;
      for (int i = 0; i < 3; ++i) sim.Spawn<minbft::MinBftReplica>(opts);
      auto* client = minbft::SpawnClient(&sim, 3, &registry, 20);
      sim.Start();
      sim::Time t0 = sim.now();
      sim.RunUntil([&] { return client->done(); }, 240 * sim::kSecond);
      t.AddRow({"MinBFT", "3 (= 2f+1)", "2 (prepare, commit)",
                TextTable::Num(sim.stats().messages_sent / 20.0, 1),
                TextTable::Num((sim.now() - t0) / 1000.0 / 20.0, 1)});
    }
    // PBFT at n = 4 for contrast.
    {
      sim::NetworkOptions net;
      net.min_delay = net.max_delay = 1 * sim::kMillisecond;
      auto sim_owner =
          sim::Simulation::Builder(1).Network(net).AutoStart(false).Build();
      sim::Simulation& sim = *sim_owner;
      crypto::KeyRegistry registry(1, 12);
      pbft::PbftOptions opts;
      opts.n = 4;
      opts.registry = &registry;
      for (int i = 0; i < 4; ++i) sim.Spawn<pbft::PbftReplica>(opts);
      auto* client = pbft::SpawnClient(&sim, 4, &registry, 20);
      sim.Start();
      sim::Time t0 = sim.now();
      sim.RunUntil([&] { return client->done(); }, 240 * sim::kSecond);
      t.AddRow({"PBFT", "4 (= 3f+1)", "3 (pre-prepare, prepare, commit)",
                TextTable::Num(sim.stats().messages_sent / 20.0, 1),
                TextTable::Num((sim.now() - t0) / 1000.0 / 20.0, 1)});
    }
    std::printf("%s\n", t.ToString().c_str());
    std::printf("The USIG's unique sequential identifiers stop a Byzantine\n"
                "primary from equivocating, which is what PBFT's extra phase\n"
                "and extra f replicas exist to handle: MinBFT runs Byzantine\n"
                "agreement at Paxos prices (deck: 'same number of replicas,\n"
                "communication phases and message complexity as Paxos').\n\n");
  }

  std::printf("==== F15: CheapBFT (f+1 active replicas) ====\n\n");
  {
    // Composite run: CheapTiny -> crash -> PANIC -> CheapSwitch -> MinBFT.
    sim::NetworkOptions net;
    net.min_delay = net.max_delay = 1 * sim::kMillisecond;
    auto sim_owner =
        sim::Simulation::Builder(2).Network(net).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;
    crypto::KeyRegistry registry(2, 12);
    crypto::Usig usig(&registry);
    cheapbft::CheapBftOptions opts;
    opts.f = 1;
    opts.registry = &registry;
    opts.usig = &usig;
    std::vector<cheapbft::CheapBftReplica*> replicas;
    for (int i = 0; i < 3; ++i) {
      replicas.push_back(sim.Spawn<cheapbft::CheapBftReplica>(opts));
    }
    auto* client = cheapbft::SpawnClient(&sim, 1, &registry, 24);
    sim.Start();

    TextTable t({"phase", "mode at replicas", "completed", "prepares sent",
                 "virtual time"});
    auto modes = [&] {
      std::string s;
      for (auto* r : replicas) {
        if (sim.IsCrashed(r->id())) {
          s += "crashed ";
          continue;
        }
        switch (r->mode()) {
          case cheapbft::CheapMode::kCheapTiny:
            s += "tiny ";
            break;
          case cheapbft::CheapMode::kSwitching:
            s += "switching ";
            break;
          case cheapbft::CheapMode::kMinBft:
            s += "minbft ";
            break;
        }
      }
      return s;
    };
    sim.RunUntil([&] { return client->completed() >= 12; },
                 240 * sim::kSecond);
    t.AddRow({"CheapTiny steady state", modes(),
              TextTable::Int(client->completed()),
              TextTable::Int(sim.stats().sent_by_type.at("cheap-prepare")),
              TextTable::Num(sim.now() / 1000.0, 0) + "ms"});
    sim.Crash(1);  // Active replica fails: CheapTiny cannot mask it.
    sim.RunUntil([&] { return client->done(); }, 600 * sim::kSecond);
    t.AddRow({"after crash of active replica 1", modes(),
              TextTable::Int(client->completed()),
              TextTable::Int(sim.stats().sent_by_type.at("cheap-prepare")),
              TextTable::Num(sim.now() / 1000.0, 0) + "ms"});
    std::printf("%s\n", t.ToString().c_str());
    std::printf("In CheapTiny only f+1 = 2 replicas run agreement (the\n"
                "passive one just applies state updates); the crash forces\n"
                "a PANIC -> abort-history exchange -> MinBFT on all 2f+1,\n"
                "and the client's counter continues seamlessly: %s..%s\n",
                client->results().front().c_str(),
                client->results().back().c_str());
  }
  return 0;
}
