// F24 — The tutorial's overarching frame: the same workload ordered by a
// permissioned committee (PBFT, known participants, absolute finality)
// and by a permissionless mining network (PoW, unknown participants,
// probabilistic finality). One table, both worlds.

#include <cstdio>
#include <memory>

#include "blockchain/miner.h"
#include "common/table.h"
#include "crypto/signatures.h"
#include "pbft/pbft.h"
#include "sim/simulation.h"

using namespace consensus40;

int main() {
  std::printf("==== F24: permissioned vs permissionless ordering ====\n\n");
  std::printf("Workload: 48 transactions, 4 ordering nodes, 1ms LAN.\n\n");

  TextTable t({"metric", "PBFT committee", "PoW miners (60s blocks)"});

  // ---- Permissioned: PBFT ---------------------------------------------
  double pbft_secs = 0;
  uint64_t pbft_msgs = 0;
  {
    sim::NetworkOptions net;
    net.min_delay = net.max_delay = 1 * sim::kMillisecond;
    auto sim_owner =
        sim::Simulation::Builder(31).Network(net).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;
    crypto::KeyRegistry registry(31, 24);
    pbft::PbftOptions opts;
    opts.n = 4;
    opts.registry = &registry;
    opts.batch_size = 4;
    opts.batch_delay = 2 * sim::kMillisecond;
    for (int i = 0; i < 4; ++i) sim.Spawn<pbft::PbftReplica>(opts);
    std::vector<smr::QuorumClient*> clients;
    for (int c = 0; c < 6; ++c) {
      clients.push_back(pbft::SpawnClient(
          &sim, 4, &registry, 8, "k" + std::to_string(c)));
    }
    sim.Start();
    sim.RunUntil(
        [&] {
          for (auto* c : clients) {
            if (!c->done()) return false;
          }
          return true;
        },
        600 * sim::kSecond);
    pbft_secs = static_cast<double>(sim.now()) / sim::kSecond;
    pbft_msgs = sim.stats().messages_sent;
  }

  // ---- Permissionless: PoW --------------------------------------------
  double pow_first_conf_secs = 0, pow_six_conf_secs = 0;
  uint64_t pow_msgs = 0;
  double pow_hashes = 0;
  {
    sim::NetworkOptions net;
    net.min_delay = 200 * sim::kMillisecond;
    net.max_delay = 800 * sim::kMillisecond;
    auto sim_owner =
        sim::Simulation::Builder(32).Network(net).AutoStart(false).Build();
    sim::Simulation& sim = *sim_owner;
    blockchain::MinerNetworkParams params;
    params.chain.block_interval_secs = 60;
    params.chain.retarget_interval = 1 << 20;
    params.chain.halving_interval = 1u << 30;
    params.initial_hash_total = 4;
    params.block_tx_limit = 16;
    std::vector<blockchain::Miner*> miners;
    for (int i = 0; i < 4; ++i) {
      miners.push_back(sim.Spawn<blockchain::Miner>(&params, 4, 1.0));
    }
    sim.Start();
    std::vector<blockchain::Transaction> txs;
    for (int k = 0; k < 48; ++k) {
      blockchain::Transaction tx;
      tx.payload = "tx" + std::to_string(k);
      tx.amount = k;
      tx.fee = 1;
      txs.push_back(tx);
      miners[k % 4]->SubmitTransaction(tx);
    }
    auto all_confirmed = [&](int min_conf) {
      const blockchain::BlockTree& tree = miners[0]->tree();
      for (const blockchain::Transaction& tx : txs) {
        bool ok = false;
        for (const crypto::Digest& bh : tree.BestChain()) {
          const blockchain::Block* b = tree.GetBlock(bh);
          for (const blockchain::Transaction& btx : b->txs) {
            if (btx.Hash() == tx.Hash() &&
                tree.Confirmations(bh) >= min_conf) {
              ok = true;
            }
          }
        }
        if (!ok) return false;
      }
      return true;
    };
    sim.RunUntil([&] { return all_confirmed(1); }, 40000 * sim::kSecond);
    pow_first_conf_secs = static_cast<double>(sim.now()) / sim::kSecond;
    sim.RunUntil([&] { return all_confirmed(6); }, 80000 * sim::kSecond);
    pow_six_conf_secs = static_cast<double>(sim.now()) / sim::kSecond;
    pow_msgs = sim.stats().messages_sent;
    for (auto* m : miners) pow_hashes += m->expected_hashes();
  }

  t.AddRow({"participants", "4, known & signed", "4, open set (anyone)"});
  t.AddRow({"time to order all 48 tx",
            TextTable::Num(pbft_secs, 2) + " s (final)",
            TextTable::Num(pow_first_conf_secs, 0) + " s (1 conf)"});
  t.AddRow({"time to 'safe' settlement",
            TextTable::Num(pbft_secs, 2) + " s (same: finality is absolute)",
            TextTable::Num(pow_six_conf_secs, 0) + " s (6 conf, still "
            "probabilistic)"});
  t.AddRow({"messages", TextTable::Int(static_cast<int64_t>(pbft_msgs)),
            TextTable::Int(static_cast<int64_t>(pow_msgs))});
  t.AddRow({"compute burned", "~0 (signatures only)",
            TextTable::Num(pow_hashes, 0) + " hash-units"});
  t.AddRow({"tolerates", "f < n/3 Byzantine, known ids",
            "< 50% hash rate, no identities"});
  std::printf("%s\n", t.ToString().c_str());
  std::printf(
      "The deck's arc in one table: with known participants, 40 years of\n"
      "consensus buys sub-second absolute finality for the price of a few\n"
      "hundred messages; with unknown participants you replace\n"
      "communication with computation and buy open membership for the\n"
      "price of minutes-to-hours of probabilistic settlement and real\n"
      "energy. Hybrid designs (MinBFT, CheapBFT, XFT, SeeMoRe) and\n"
      "committee blockchains (Tendermint/LibraBFT = PBFT/HotStuff with\n"
      "rotation) populate the space between.\n");
  return 0;
}
