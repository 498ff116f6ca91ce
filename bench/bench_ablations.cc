// Ablations over the design knobs DESIGN.md calls out: Raft's randomized
// election timeout spread, HotStuff's batch size, and PBFT's checkpoint
// interval. Each knob is swept with everything else held fixed.

#include <cstdio>

#include "common/table.h"
#include "crypto/signatures.h"
#include "hotstuff/hotstuff.h"
#include "pbft/pbft.h"
#include "raft/raft.h"
#include "sim/simulation.h"

using namespace consensus40;

int main() {
  std::printf("==== Ablation 1: Raft election timeout randomization ====\n\n");
  {
    // The deck (via Raft): randomized timeouts prevent split votes. We
    // shrink the randomization window and watch elections degrade.
    TextTable t({"timeout window", "runs", "avg elections to settle",
                 "worst case"});
    for (sim::Duration base :
         {150 * sim::kMillisecond, 50 * sim::kMillisecond,
          15 * sim::kMillisecond, 5 * sim::kMillisecond}) {
      int total_elections = 0, worst = 0, settled = 0;
      const int kRuns = 12;
      for (uint64_t seed = 1; seed <= kRuns; ++seed) {
        auto sim_owner =
            sim::Simulation::Builder(seed).AutoStart(false).Build();
        sim::Simulation& sim = *sim_owner;
        raft::RaftOptions opts;
        opts.n = 5;
        opts.election_timeout = base;  // Window = [base, 2*base].
        std::vector<raft::RaftReplica*> replicas;
        for (int i = 0; i < 5; ++i) {
          replicas.push_back(sim.Spawn<raft::RaftReplica>(opts));
        }
        sim.Start();
        bool ok = sim.RunUntil(
            [&] {
              for (auto* r : replicas) {
                if (r->IsLeader()) return true;
              }
              return false;
            },
            60 * sim::kSecond);
        settled += ok;
        int elections = 0;
        for (auto* r : replicas) elections += r->elections_started();
        total_elections += elections;
        worst = std::max(worst, elections);
      }
      t.AddRow({"[" + TextTable::Num(base / 1000.0, 0) + ", " +
                    TextTable::Num(2 * base / 1000.0, 0) + "]ms",
                TextTable::Int(settled) + "/" + TextTable::Int(12),
                TextTable::Num(total_elections / 12.0, 1),
                TextTable::Int(worst)});
    }
    std::printf("%s\n", t.ToString().c_str());
    std::printf("With a wide window, one candidate usually times out alone\n"
                "and wins in a single election. As the window shrinks toward\n"
                "the message delay, candidates collide, split votes pile up,\n"
                "and convergence takes many more terms.\n\n");
  }

  std::printf("==== Ablation 2: HotStuff batch size ====\n\n");
  {
    TextTable t({"batch size", "blocks for 40 cmds", "proto msgs/cmd",
                 "ms/cmd"});
    for (int batch : {1, 4, 8, 16}) {
      sim::NetworkOptions net;
      net.min_delay = net.max_delay = 1 * sim::kMillisecond;
      auto sim_owner =
          sim::Simulation::Builder(5).Network(net).AutoStart(false).Build();
      sim::Simulation& sim = *sim_owner;
      crypto::KeyRegistry registry(5, 24);
      hotstuff::HotStuffOptions opts;
      opts.n = 4;
      opts.registry = &registry;
      opts.batch_size = batch;
      std::vector<hotstuff::HotStuffReplica*> replicas;
      for (int i = 0; i < 4; ++i) {
        replicas.push_back(sim.Spawn<hotstuff::HotStuffReplica>(opts));
      }
      std::vector<smr::QuorumClient*> clients;
      for (int c = 0; c < 8; ++c) {
        clients.push_back(hotstuff::SpawnClient(
            &sim, 4, &registry, 5, "k" + std::to_string(c)));
      }
      sim.Start();
      sim::Time t0 = sim.now();
      sim.RunUntil(
          [&] {
            for (auto* c : clients) {
              if (!c->done()) return false;
            }
            return true;
          },
          600 * sim::kSecond);
      int blocks = 0;
      for (auto* r : replicas) blocks += r->blocks_proposed();
      const auto& types = sim.stats().sent_by_type;
      uint64_t proto = types.at("hs-proposal") + types.at("hs-vote");
      t.AddRow({TextTable::Int(batch), TextTable::Int(blocks),
                TextTable::Num(proto / 40.0, 1),
                TextTable::Num((sim.now() - t0) / 1000.0 / 40.0, 1)});
    }
    std::printf("%s\n", t.ToString().c_str());
    std::printf("Bigger batches amortize one chain slot over many commands:\n"
                "fewer blocks, fewer votes per command. The pipeline depth\n"
                "(3 chained phases) sets the latency floor either way.\n\n");
  }

  std::printf("==== Ablation 3: PBFT checkpoint interval ====\n\n");
  {
    TextTable t({"checkpoint every", "checkpoint msgs", "final log slots",
                 "stable checkpoint"});
    for (uint64_t interval : {4, 16, 64}) {
      auto sim_owner = sim::Simulation::Builder(3).AutoStart(false).Build();
      sim::Simulation& sim = *sim_owner;
      crypto::KeyRegistry registry(3, 12);
      pbft::PbftOptions opts;
      opts.n = 4;
      opts.registry = &registry;
      opts.checkpoint_interval = interval;
      std::vector<pbft::PbftReplica*> replicas;
      for (int i = 0; i < 4; ++i) {
        replicas.push_back(sim.Spawn<pbft::PbftReplica>(opts));
      }
      auto* client = pbft::SpawnClient(&sim, 4, &registry, 48);
      sim.Start();
      sim.RunUntil([&] { return client->done(); }, 600 * sim::kSecond);
      sim.RunFor(2 * sim::kSecond);
      uint64_t cp_msgs = sim.stats().sent_by_type.count("checkpoint")
                             ? sim.stats().sent_by_type.at("checkpoint")
                             : 0;
      t.AddRow({TextTable::Int(static_cast<int64_t>(interval)),
                TextTable::Int(static_cast<int64_t>(cp_msgs)),
                TextTable::Int(static_cast<int64_t>(
                    replicas[0]->LogSizeForTest())),
                TextTable::Int(static_cast<int64_t>(
                    replicas[0]->stable_checkpoint()))});
    }
    std::printf("%s\n", t.ToString().c_str());
    std::printf("Frequent checkpoints keep the message log tiny but cost a\n"
                "2f+1 signature exchange each time; rare checkpoints invert\n"
                "the trade — the garbage-collection dial from the deck's\n"
                "checkpointing slide.\n\n");
  }

  std::printf("==== Ablation 4: PBFT request batching ====\n\n");
  {
    TextTable t({"batch (size, delay)", "agreement instances for 36 cmds",
                 "protocol msgs/cmd", "ms/cmd"});
    struct Cfg {
      int size;
      sim::Duration delay;
    };
    for (Cfg cfg : {Cfg{1, 0}, Cfg{4, 2 * sim::kMillisecond},
                    Cfg{8, 3 * sim::kMillisecond}}) {
      sim::NetworkOptions net;
      net.min_delay = net.max_delay = 1 * sim::kMillisecond;
      auto sim_owner =
          sim::Simulation::Builder(7).Network(net).AutoStart(false).Build();
      sim::Simulation& sim = *sim_owner;
      crypto::KeyRegistry registry(7, 24);
      pbft::PbftOptions opts;
      opts.n = 4;
      opts.registry = &registry;
      opts.batch_size = cfg.size;
      opts.batch_delay = cfg.delay;
      for (int i = 0; i < 4; ++i) sim.Spawn<pbft::PbftReplica>(opts);
      std::vector<smr::QuorumClient*> clients;
      for (int c = 0; c < 6; ++c) {
        clients.push_back(pbft::SpawnClient(
            &sim, 4, &registry, 6, "k" + std::to_string(c)));
      }
      sim.Start();
      sim::Time t0 = sim.now();
      sim.RunUntil(
          [&] {
            for (auto* c : clients) {
              if (!c->done()) return false;
            }
            return true;
          },
          240 * sim::kSecond);
      const auto& types = sim.stats().sent_by_type;
      uint64_t instances = types.at("pre-prepare") / 3;  // One per backup.
      uint64_t proto = types.at("pre-prepare") + types.at("prepare") +
                       types.at("commit");
      t.AddRow({"(" + TextTable::Int(cfg.size) + ", " +
                    TextTable::Num(cfg.delay / 1000.0, 0) + "ms)",
                TextTable::Int(static_cast<int64_t>(instances)),
                TextTable::Num(proto / 36.0, 1),
                TextTable::Num((sim.now() - t0) / 1000.0 / 36.0, 1)});
    }
    std::printf("%s\n", t.ToString().c_str());
    std::printf("Batching divides the quadratic prepare/commit bill across\n"
                "the batch: 36 commands need a fraction of the instances,\n"
                "at the cost of the batching delay — the standard PBFT\n"
                "throughput knob.\n");
  }
  return 0;
}
