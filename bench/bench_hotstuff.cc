// F13 — HotStuff: linear message complexity vs PBFT's quadratic, the
// chained pipeline, and per-block leader rotation.

#include <cstdio>

#include "common/table.h"
#include "crypto/signatures.h"
#include "hotstuff/hotstuff.h"
#include "pbft/pbft.h"
#include "sim/simulation.h"

using namespace consensus40;

namespace {

struct HsRun {
  double proto_msgs_per_cmd;
  double ms_per_cmd;
  int distinct_proposers;
  double cmds_per_block;
};

HsRun RunHotStuff(int n, int clients, int ops_each, uint64_t seed) {
  sim::NetworkOptions net;
  net.min_delay = net.max_delay = 1 * sim::kMillisecond;
  auto sim_owner =
      sim::Simulation::Builder(seed).Network(net).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  crypto::KeyRegistry registry(seed, n + 16);
  hotstuff::HotStuffOptions opts;
  opts.n = n;
  opts.registry = &registry;
  std::vector<hotstuff::HotStuffReplica*> replicas;
  for (int i = 0; i < n; ++i) {
    replicas.push_back(sim.Spawn<hotstuff::HotStuffReplica>(opts));
  }
  std::vector<smr::QuorumClient*> cs;
  for (int c = 0; c < clients; ++c) {
    cs.push_back(hotstuff::SpawnClient(
        &sim, n, &registry, ops_each, "k" + std::to_string(c)));
  }
  sim.Start();
  sim::Time t0 = sim.now();
  sim.RunUntil(
      [&] {
        for (auto* c : cs) {
          if (!c->done()) return false;
        }
        return true;
      },
      600 * sim::kSecond);
  double cmds = clients * ops_each;
  const auto& types = sim.stats().sent_by_type;
  uint64_t proto = 0;
  for (const char* type : {"hs-proposal", "hs-vote", "hs-new-view"}) {
    auto it = types.find(type);
    if (it != types.end()) proto += it->second;
  }
  int proposers = 0, blocks = 0;
  for (auto* r : replicas) {
    proposers += (r->blocks_proposed() > 0);
    blocks += r->blocks_proposed();
  }
  return {proto / cmds,
          static_cast<double>(sim.now() - t0) / 1000.0 / cmds, proposers,
          blocks > 0 ? cmds / blocks : 0};
}

double RunPbftMsgs(int n, int ops, uint64_t seed) {
  sim::NetworkOptions net;
  net.min_delay = net.max_delay = 1 * sim::kMillisecond;
  auto sim_owner =
      sim::Simulation::Builder(seed).Network(net).AutoStart(false).Build();
  sim::Simulation& sim = *sim_owner;
  crypto::KeyRegistry registry(seed, n + 8);
  pbft::PbftOptions opts;
  opts.n = n;
  opts.registry = &registry;
  for (int i = 0; i < n; ++i) sim.Spawn<pbft::PbftReplica>(opts);
  auto* client = pbft::SpawnClient(&sim, n, &registry, ops);
  sim.Start();
  sim.RunUntil([&] { return client->done(); }, 600 * sim::kSecond);
  const auto& types = sim.stats().sent_by_type;
  uint64_t proto = 0;
  for (const char* type : {"pre-prepare", "prepare", "commit"}) {
    auto it = types.find(type);
    if (it != types.end()) proto += it->second;
  }
  return proto / static_cast<double>(ops);
}

}  // namespace

int main() {
  std::printf("==== F13: HotStuff ====\n\n");

  std::printf("-- protocol messages per command vs PBFT --\n");
  TextTable t({"n", "HotStuff msgs/cmd", "PBFT msgs/cmd", "HS growth",
               "PBFT growth"});
  double hs4 = 0, p4 = 0;
  for (int n : {4, 7, 10, 13}) {
    double hs = RunHotStuff(n, 4, 5, 1).proto_msgs_per_cmd;
    double p = RunPbftMsgs(n, 20, 1);
    if (n == 4) {
      hs4 = hs;
      p4 = p;
    }
    t.AddRow({TextTable::Int(n), TextTable::Num(hs, 1), TextTable::Num(p, 1),
              TextTable::Num(hs / hs4, 2) + "x",
              TextTable::Num(p / p4, 2) + "x"});
  }
  std::printf("%s\n", t.ToString().c_str());
  std::printf("HotStuff grows linearly (each n-to-n PBFT phase became\n"
              "n-to-1 votes + 1-to-n certificate broadcast via threshold\n"
              "signatures); PBFT grows ~ (n/4)^2. The crossover is where\n"
              "the deck's 'linear communication' headline pays off.\n\n");

  std::printf("-- leader rotation and the chained pipeline (n = 4) --\n");
  {
    HsRun r = RunHotStuff(4, 8, 5, 3);
    TextTable p({"metric", "value"});
    p.AddRow({"distinct leaders proposing", TextTable::Int(r.distinct_proposers)});
    p.AddRow({"commands per block (batching)", TextTable::Num(r.cmds_per_block, 2)});
    p.AddRow({"latency per command (ms)", TextTable::Num(r.ms_per_cmd, 1)});
    std::printf("%s\n", p.ToString().c_str());
    std::printf("The leader rotates every block ('a leader is rotated after\n"
                "a single attempt') and the prepare/pre-commit/commit/decide\n"
                "phases of consecutive blocks overlap: block k's prepare is\n"
                "block k-1's pre-commit is block k-2's commit — the deck's\n"
                "pipeline figure.\n");
  }
  return 0;
}
