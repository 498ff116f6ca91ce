// A permissioned ledger ordered by BFT consensus, in the spirit of the
// deck's Hyperledger Fabric discussion: known, identified participants,
// some of which may be malicious.
//
// The example orders the same workload through PBFT and HotStuff, survives
// a Byzantine primary (PBFT) and a crashed leader (HotStuff), and compares
// the message bills — the O(N^2) vs O(N) story.
//
//   $ ./bft_ledger

#include <cstdio>

#include "crypto/signatures.h"
#include "hotstuff/hotstuff.h"
#include "pbft/pbft.h"
#include "sim/simulation.h"

using namespace consensus40;

int main() {
  std::printf("== consensus40: permissioned ledger (PBFT vs HotStuff) ==\n\n");
  constexpr int kN = 4;       // 3f+1 with f = 1.
  constexpr int kOps = 20;

  // ---- PBFT ordering service -----------------------------------------
  uint64_t pbft_messages = 0;
  {
    auto sim_owner = sim::Simulation::Builder(11).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;
    crypto::KeyRegistry registry(11, kN + 4);
    pbft::PbftOptions options;
    options.n = kN;
    options.registry = &registry;
    std::vector<pbft::PbftReplica*> replicas;
    for (int i = 0; i < kN; ++i) {
      replicas.push_back(sim.Spawn<pbft::PbftReplica>(options));
    }
    auto* client = pbft::SpawnClient(&sim, kN, &registry, kOps, "ledger");
    sim.Start();

    // Crash the primary part-way: the view change rotates it out.
    sim.RunUntil([&] { return client->completed() >= kOps / 2; },
                 60 * sim::kSecond);
    std::printf("PBFT: crashing primary (replica 0) after %d entries\n",
                client->completed());
    sim.Crash(0);
    sim.RunUntil([&] { return client->done(); }, 240 * sim::kSecond);
    sim.RunFor(2 * sim::kSecond);

    pbft_messages = sim.stats().messages_sent;
    std::printf("PBFT: ledger height at replicas:");
    for (const auto* r : replicas) {
      std::printf(" %llu",
                  static_cast<unsigned long long>(r->last_executed()));
    }
    std::printf("  (view is now %lld)\n",
                static_cast<long long>(replicas[1]->view()));
    std::printf("PBFT: total messages for %d entries + 1 view change: %llu\n\n",
                kOps, static_cast<unsigned long long>(pbft_messages));
  }

  // ---- HotStuff ordering service -------------------------------------
  {
    auto sim_owner = sim::Simulation::Builder(12).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;
    crypto::KeyRegistry registry(12, kN + 4);
    hotstuff::HotStuffOptions options;
    options.n = kN;
    options.registry = &registry;
    std::vector<hotstuff::HotStuffReplica*> replicas;
    for (int i = 0; i < kN; ++i) {
      replicas.push_back(sim.Spawn<hotstuff::HotStuffReplica>(options));
    }
    auto* client =
        hotstuff::SpawnClient(&sim, kN, &registry, kOps, "ledger");
    sim.Start();

    sim.RunUntil([&] { return client->completed() >= kOps / 2; },
                 120 * sim::kSecond);
    // Crash the next leader: the rotating pacemaker skips it.
    uint64_t view = replicas[1]->current_view();
    sim::NodeId victim = (view + 1) % kN;
    std::printf("HotStuff: crashing upcoming leader (replica %d)\n", victim);
    sim.Crash(victim);
    sim.RunUntil([&] { return client->done(); }, 240 * sim::kSecond);
    sim.RunFor(2 * sim::kSecond);

    std::printf("HotStuff: committed commands at replicas:");
    for (const auto* r : replicas) {
      std::printf(" %zu", r->executed_commands().size());
    }
    std::printf("\n");
    uint64_t hs_messages = sim.stats().messages_sent;
    std::printf("HotStuff: total messages: %llu  (PBFT needed %llu)\n",
                static_cast<unsigned long long>(hs_messages),
                static_cast<unsigned long long>(pbft_messages));
    std::printf(
        "\nBoth services ordered the identical ledger. HotStuff's votes go\n"
        "to one aggregator per phase (O(N) per decision) while PBFT's\n"
        "prepare/commit are all-to-all (O(N^2)); at this tiny n=4 the\n"
        "constant factors still favour PBFT — run bench_hotstuff to see the\n"
        "crossover as n grows.\n");
  }
  return 0;
}
