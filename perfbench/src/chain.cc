// chain: 1 selfish and 3 honest miners on a 50-200 ms network. A round is
// kEpisodes independent episodes. Each episode's set-up builds a history
// of blocks through the public Block/BlockTree API and delivers it to
// every miner; then client transactions are submitted to honest miners on
// a fixed virtual-time schedule (an open loop), and the episode runs until
// a fixed tail after the last submission.
//
// An operation is a submitted transaction; its latency is the time until
// its block is 6 deep on honest miner 1's best chain.
//
// Checks: once mining stops and the blocks in flight land, every honest
// miner knows the same blocks and follows a chain of the same length and
// work (equally long branches may still tie at the tip); miner 1's chain
// is correctly linked and keeps the history; block rewards follow RewardAt
// and sum to it; no transaction is included twice; every submitted
// transaction is 6 deep by the end.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "blockchain/block.h"
#include "blockchain/chain.h"
#include "blockchain/miner.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace sim = consensus40::sim;
namespace bc = consensus40::blockchain;
namespace crypto = consensus40::crypto;
using sim::kMillisecond;
using sim::kSecond;

constexpr int kEpisodes = 80;
constexpr int kMiners = 4;  ///< Miner 0 is selfish.
constexpr double kSelfishPower = 0.3;
constexpr uint32_t kBlockSecs = 30;
constexpr int kHistory = 60;
constexpr int kTxs = 60;  ///< Per episode.
constexpr sim::Duration kTxEvery = 30 * kSecond;
constexpr sim::Duration kTail = 1200 * kSecond;
constexpr int kDepth = 6;
constexpr sim::Duration kQuiesce = 5 * kSecond;
constexpr double kIdlePower = 1e-6;  ///< Hash power while history loads.
constexpr char kLayer[] = "blockchain";

bc::ChainOptions Options() {
  bc::ChainOptions o;
  o.verify_pow = false;
  o.block_interval_secs = kBlockSecs;
  o.retarget_interval = 1u << 20;
  o.initial_reward = 50;
  o.halving_interval = 40;
  return o;
}

/// Sends a pre-built history to every miner, in order, at start-up.
class HistoryFeeder : public sim::Process {
 public:
  explicit HistoryFeeder(const std::vector<bc::Block>* history) : history_(history) {}
  void OnStart() override {
    for (const bc::Block& b : *history_) {
      auto msg = std::make_shared<bc::Miner::BlockMsg>(b);
      for (sim::NodeId m = 0; m < kMiners; ++m) Send(m, msg);
    }
  }
  void OnMessage(sim::NodeId, const sim::Message&) override {}

 private:
  const std::vector<bc::Block>* history_;
};

struct TxSpec {
  bc::Transaction tx;
  sim::NodeId miner;
};

struct EpisodeSpec {
  uint64_t sim_seed = 0;
  std::vector<int32_t> history_miners;
  std::vector<TxSpec> txs;
};

/// What a round accumulates over its episodes.
struct Totals {
  double setup_s = 0;
  double timed_s = 0;
  uint64_t steps = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t dropped = 0;
  sim::Duration confirm_span = 0;  ///< First submission -> last 6-deep.
  std::vector<double> confirm_ms;
  int stale = 0;
  int reorgs = 0;
  std::vector<double> best_chain_us;
  Tracer tracer;
};

class Chain : public Workload {
 public:
  explicit Chain(uint64_t seed);
  Round Run(bool traced) override;

 private:
  void Episode(const EpisodeSpec& spec, bool traced, Totals* totals, Round* round);
  std::vector<EpisodeSpec> episodes_;
};

Chain::Chain(uint64_t seed) {
  Gen g(SubSeed(seed, 42));
  for (int e = 0; e < kEpisodes; ++e) {
    EpisodeSpec ep;
    ep.sim_seed = SubSeed(seed, 43 + static_cast<uint64_t>(e));
    for (int i = 0; i < kHistory; ++i) {
      ep.history_miners.push_back(static_cast<int32_t>(g.Below(kMiners)));
    }
    for (int i = 0; i < kTxs; ++i) {
      TxSpec s;
      s.tx.payload = "tx" + std::to_string(e) + "." + std::to_string(i);
      s.tx.amount = 1 + static_cast<int64_t>(g.Below(1000));
      s.tx.fee = 1 + static_cast<int64_t>(g.Below(10));
      s.miner = 1 + static_cast<sim::NodeId>(g.Below(kMiners - 1));
      ep.txs.push_back(s);
    }
    episodes_.push_back(std::move(ep));
  }
}

void Chain::Episode(const EpisodeSpec& spec, bool traced, Totals* totals,
                    Round* round) {
  // Set-up: build the history, start the network, deliver the history.
  const double t0 = WallNow();
  std::vector<bc::Block> history;
  {
    bc::BlockTree tree(Options());
    crypto::Digest parent{};
    for (int i = 0; i < kHistory; ++i) {
      bc::Block b;
      b.header.prev_hash = parent;
      b.header.timestamp = static_cast<uint32_t>(i) * kBlockSecs;
      b.header.target = tree.NextTarget(parent);
      b.miner = spec.history_miners[static_cast<size_t>(i)];
      b.reward = tree.RewardAt(tree.HeightOf(parent) + 1);
      b.header.merkle_root = b.ComputeMerkleRoot();
      b.header.nonce = static_cast<uint64_t>(i);
      if (!tree.AddBlock(b).ok()) {
        round->Fail("history block " + std::to_string(i) + " rejected");
        return;
      }
      parent = b.Hash();
      history.push_back(std::move(b));
    }
  }
  bc::MinerNetworkParams params;
  params.chain = Options();
  std::vector<bc::Miner*> miners;
  auto config =
      sim::Simulation::Builder(spec.sim_seed)
          .Delay(1 * kMillisecond, 1 * kMillisecond)
          .Setup([&](sim::Simulation& s) {
            miners.push_back(s.Spawn<bc::SelfishMiner>(&params, kMiners, kIdlePower));
            for (int i = 1; i < kMiners; ++i) {
              miners.push_back(s.Spawn<bc::Miner>(&params, kMiners, kIdlePower));
            }
            s.Spawn<HistoryFeeder>(&history);
          });
  if (traced) config.Trace(totals->tracer.Hook());
  std::unique_ptr<sim::Simulation> owner = config.Build();
  sim::Simulation* s = owner.get();
  if (traced) {
    for (sim::NodeId m = 0; m < kMiners; ++m) totals->tracer.SetLayer(m, kLayer);
  }
  auto loaded = [&] {
    for (bc::Miner* m : miners) {
      if (m->tree().BestHeight() != static_cast<uint64_t>(kHistory)) return false;
    }
    return true;
  };
  if (!s->RunUntil(loaded, s->now() + 60 * kSecond)) {
    round->Fail("history was not loaded");
    return;
  }
  totals->setup_s += WallNow() - t0;

  // Timed phase.
  sim::NetworkOptions net;
  net.min_delay = 50 * kMillisecond;
  net.max_delay = 200 * kMillisecond;
  s->SetNetworkOptions(net);
  miners[0]->SetHashPower(kSelfishPower);
  for (int i = 1; i < kMiners; ++i) {
    miners[static_cast<size_t>(i)]->SetHashPower((1.0 - kSelfishPower) / (kMiners - 1));
  }
  const sim::NetStats base = s->stats();
  const sim::Time start = s->now();
  std::vector<sim::Time> submitted(spec.txs.size());
  for (size_t i = 0; i < spec.txs.size(); ++i) {
    submitted[i] = start + static_cast<sim::Time>(i) * kTxEvery;
    bc::Miner* m = miners[static_cast<size_t>(spec.txs[i].miner)];
    const bc::Transaction tx = spec.txs[i].tx;
    s->ScheduleAt(submitted[i], [m, tx] { m->SubmitTransaction(tx); });
  }
  const sim::Time end = submitted.back() + kTail;

  // When each block first became part of honest miner 1's best chain.
  const bc::BlockTree& view = miners[1]->tree();
  std::map<crypto::Digest, sim::Time> on_best;
  auto mark = [&](crypto::Digest d) {
    while (on_best.emplace(d, s->now()).second) {
      const bc::Block* b = view.GetBlock(d);
      if (b == nullptr || b->header.prev_hash == crypto::Digest{}) break;
      d = b->header.prev_hash;
    }
  };
  crypto::Digest tip = view.BestTip();
  mark(tip);
  Stepper stepper(s, traced ? &totals->tracer : nullptr);
  const double t1 = WallNow();
  auto follow = [&] {
    if (!(view.BestTip() == tip)) {
      tip = view.BestTip();
      mark(tip);
    }
    return false;
  };
  stepper.RunUntil(follow, end);
  totals->timed_s += WallNow() - t1;

  // Quiesce: mining stops and the blocks in flight land, so every honest
  // miner knows every published block.
  for (bc::Miner* m : miners) m->SetHashPower(kIdlePower);
  s->RunUntil(follow, end + kQuiesce);

  // Checks. Honest miners that know the same blocks follow chains of equal
  // work; ties between equally long branches may keep their tips apart.
  for (int i = 2; i < kMiners; ++i) {
    const bc::BlockTree& t = miners[static_cast<size_t>(i)]->tree();
    if (t.TotalBlocks() != view.TotalBlocks() || t.BestHeight() != view.BestHeight() ||
        t.BestWork() != view.BestWork()) {
      round->Fail("honest miners 1 and " + std::to_string(i) + " end on different "
                  "block sets or chain lengths");
    }
  }
  const std::vector<crypto::Digest> chain = view.BestChain();
  std::map<std::string, size_t> tx_height;
  int64_t rewards = 0, expected_rewards = 0;
  crypto::Digest parent{};
  for (size_t h = 0; h < chain.size(); ++h) {
    const bc::Block* b = view.GetBlock(chain[h]);
    if (b == nullptr || !(b->header.prev_hash == parent) || !(b->Hash() == chain[h]) ||
        !(b->header.merkle_root == b->ComputeMerkleRoot())) {
      round->Fail("best chain is broken at height " + std::to_string(h + 1));
      return;
    }
    if (h < history.size() && !(chain[h] == history[h].Hash())) {
      round->Fail("history block " + std::to_string(h + 1) + " was replaced");
    }
    rewards += b->reward;
    expected_rewards += view.RewardAt(h + 1);
    for (const bc::Transaction& tx : b->txs) {
      if (!tx_height.emplace(tx.payload, h).second) {
        round->Fail("transaction " + tx.payload + " included twice");
      }
    }
    parent = chain[h];
  }
  int64_t by_miner = 0;
  for (const auto& [miner, r] : view.RewardsByMiner()) by_miner += r;
  if (rewards != expected_rewards || by_miner != expected_rewards) {
    round->Fail("rewards sum to " + std::to_string(rewards) + " (" +
                std::to_string(by_miner) + " by miner), RewardAt gives " +
                std::to_string(expected_rewards));
  }
  sim::Time last_confirm = start;
  for (size_t i = 0; i < spec.txs.size(); ++i) {
    auto it = tx_height.find(spec.txs[i].tx.payload);
    if (it == tx_height.end() || it->second + kDepth > chain.size()) {
      round->Fail("transaction " + spec.txs[i].tx.payload + " is not " +
                  std::to_string(kDepth) + " deep by the end");
      continue;
    }
    const sim::Time at = on_best.at(chain[it->second + kDepth - 1]);
    totals->confirm_ms.push_back(static_cast<double>(at - submitted[i]) / 1000.0);
    last_confirm = std::max(last_confirm, at);
  }

  const sim::NetStats& st = s->stats();
  totals->steps += stepper.steps();
  totals->messages += st.messages_sent - base.messages_sent;
  totals->bytes += st.bytes_sent - base.bytes_sent;
  totals->dropped += st.messages_dropped - base.messages_dropped;
  totals->confirm_span += last_confirm - start;
  totals->stale += view.StaleBlocks();
  totals->reorgs += view.reorgs();
  if (traced) {
    for (int i = 0; i < 5; ++i) {
      const double w0 = WallNow();
      const size_t n = view.BestChain().size();
      totals->best_chain_us.push_back((WallNow() - w0) * 1e6);
      if (n != chain.size()) round->Fail("BestChain changed after the run");
    }
  }
}

Round Chain::Run(bool traced) {
  Round round;
  Totals totals;
  for (const EpisodeSpec& spec : episodes_) {
    Episode(spec, traced, &totals, &round);
    if (!round.correct) return round;
  }
  const double ops = static_cast<double>(kEpisodes) * kTxs;
  round.attempted = static_cast<int64_t>(ops);
  round.setup_s = totals.setup_s;
  round.timed_s = totals.timed_s;
  round.det["events_per_op"] = {static_cast<double>(totals.steps) / ops, "count"};
  round.det["msgs_per_op"] = {static_cast<double>(totals.messages) / ops, "count"};
  round.det["ops_per_vsec"] = {
      ops / (static_cast<double>(totals.confirm_span) / kSecond), "1/s"};
  round.det["op_p50_vms"] = {Percentile(totals.confirm_ms, 0.5), "vms"};
  round.det["op_p90_vms"] = {Percentile(totals.confirm_ms, 0.9), "vms"};
  Metrics& L = round.det_layers;
  L["workload.op_p99_vms"] = {Percentile(totals.confirm_ms, 0.99), "vms"};
  L["blockchain.stale_blocks"] = {static_cast<double>(totals.stale), "count"};
  L["blockchain.reorgs"] = {static_cast<double>(totals.reorgs), "count"};
  L["sim.bytes_per_op"] = {static_cast<double>(totals.bytes) / ops, "B"};
  L["sim.dropped_per_op"] = {static_cast<double>(totals.dropped) / ops, "count"};
  if (traced) {
    Metrics& H = round.host_layers;
    const Tracer& tracer = totals.tracer;
    H["blockchain.best_chain_us"] = {Percentile(totals.best_chain_us, 0.5), "us"};
    const Tracer::Bucket tx = tracer.LayerType(kLayer, "tx");
    const Tracer::Bucket block = tracer.LayerType(kLayer, "block");
    H["blockchain.tx_self_us"] = {tx.ns / 1000.0 / static_cast<double>(tx.events), "us"};
    H["blockchain.block_self_us"] = {
        block.ns / 1000.0 / static_cast<double>(block.events), "us"};
    const Tracer::Bucket timers = tracer.timers();
    L["sim.timer_events_per_op"] = {static_cast<double>(timers.events) / ops, "count"};
    H["sim.ns_per_event"] = {timers.ns / static_cast<double>(timers.events), "ns"};
  }
  return round;
}

}  // namespace

std::unique_ptr<Workload> MakeChain(uint64_t seed) {
  return std::make_unique<Chain>(seed);
}

}  // namespace perfbench
