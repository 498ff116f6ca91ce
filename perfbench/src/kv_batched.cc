// kv-batched: 4 Raft shards on the tuned hot path (client window 16, batch
// 16, 1 ms linger, checkpoint every 1024 entries) under 64 outstanding
// operations. Half the operations are single-key read-index reads through
// GroupClient::Read; the other half are blind-PUT transactions through the
// TxCoordinator, most one-phase and a fifth cross-shard 2PC, over a
// preloaded key space much larger than the write set. Shard 0's leader is
// crashed a quarter of the way through and restarted a second later.
//
// A small fixed set of writes carries values with spaces, to keys nothing
// else touches; each one counts as failed unless the value reads back
// intact.

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "consensus/replica_group.h"
#include "shard/routing.h"
#include "shard/shard.h"
#include "shard_port.h"
#include "shard_probe.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace sim = consensus40::sim;
namespace shard = consensus40::shard;
namespace consensus = consensus40::consensus;
using sim::kMillisecond;
using sim::kSecond;

constexpr int kShards = 4;
constexpr int kWindow = 16;
constexpr int kOutstanding = 64;
constexpr int kOps = 20000;
constexpr int kPreloadKeys = 4096;
constexpr int kPreloadPerTx = 16;
constexpr int kPreloadOutstanding = 32;
constexpr int kWriteKeys = 1024;
constexpr double kReadFraction = 0.5;
constexpr double kCrossFraction = 0.2;
constexpr int kMultiWord = 8;
constexpr sim::Duration kRestartAfter = 1 * kSecond;
constexpr sim::Duration kAbortBackoff = 10 * kMillisecond;
constexpr sim::Duration kHorizon = 600 * kSecond;

std::string Key(int i) { return "k" + std::to_string(i); }
std::string PreloadValue(int i) { return "p" + std::to_string(i); }
std::string MultiWordValue(int j) {
  return "multi word value " + std::to_string(j);
}

struct OpSpec {
  enum Kind { kRead, kWrite, kMultiWord } kind = kRead;
  std::vector<std::string> keys;
};

class KvBatched : public Workload {
 public:
  explicit KvBatched(uint64_t seed);
  Round Run(bool traced) override;

 private:
  uint64_t sim_seed_;
  shard::RoutingTable table_ = shard::RoutingTable::Initial(kShards);
  std::vector<OpSpec> ops_;
};

KvBatched::KvBatched(uint64_t seed) : sim_seed_(SubSeed(seed, 11)) {
  Gen g(SubSeed(seed, 12));
  ops_.resize(kOps);
  for (int i = 0; i < kOps; ++i) {
    OpSpec& op = ops_[static_cast<size_t>(i)];
    if (i % (kOps / kMultiWord) == 0) {
      op.kind = OpSpec::kMultiWord;
      op.keys = {"mw" + std::to_string(i / (kOps / kMultiWord))};
      continue;
    }
    if (g.Unit() < kReadFraction) {
      op.kind = OpSpec::kRead;
      op.keys = {Key(static_cast<int>(g.Below(kPreloadKeys)))};
      continue;
    }
    op.kind = OpSpec::kWrite;
    const std::string k1 = Key(static_cast<int>(g.Below(kWriteKeys)));
    op.keys = {k1};
    if (g.Unit() < kCrossFraction) {
      for (int tries = 0; tries < 64; ++tries) {
        std::string k2 = Key(static_cast<int>(g.Below(kWriteKeys)));
        if (table_.GroupForKey(k2) != table_.GroupForKey(k1)) {
          op.keys.push_back(std::move(k2));
          break;
        }
      }
    }
  }
}

/// Everything one round owns. Callbacks from the simulated processes land
/// here.
class KvRound {
 public:
  KvRound(const std::vector<OpSpec>& ops, const shard::RoutingTable& table)
      : specs_(ops), table_(table), state_(ops.size()) {}

  // Simulated processes call back into the round through `this`.
  KvRound(const KvRound&) = delete;
  KvRound& operator=(const KvRound&) = delete;

  Round Run(uint64_t sim_seed, bool traced);

 private:
  struct OpState {
    sim::Time start = -1;
    sim::Time end = -1;
    int attempts = 0;
    std::string read_value;
  };
  struct Attempt {
    int op = -1;  ///< -1 for preload transactions.
    int preload_first = -1;  ///< First key of a preload transaction.
    std::vector<std::string> keys;
    std::string value;
    sim::Time start = 0;
    sim::Time end = -1;
    bool committed = false;
  };

  void Start(int op);
  void SubmitWrite(int op);
  void SubmitPreload(int first_key);
  void OnOutcome(const shard::TxOutcomeMsg& m);
  void OnRead(int group, uint64_t seq, const std::string& result);
  void Complete(int op);
  void Check(Round* round);
  bool TouchesShard0(int op) const;

  const std::vector<OpSpec>& specs_;
  const shard::RoutingTable& table_;
  std::vector<OpState> state_;
  sim::Simulation* sim_ = nullptr;
  std::unique_ptr<shard::ShardedStateMachine> ssm_;
  std::vector<consensus::GroupClient*> readers_;
  TxPort* port_ = nullptr;

  std::map<uint64_t, Attempt> attempts_;                 ///< By tx id.
  std::map<std::pair<int, uint64_t>, int> read_seq_;     ///< -> op.
  std::map<std::pair<int, uint64_t>, std::string> readback_seq_;  ///< -> key.
  std::map<std::string, std::string> readback_;          ///< key -> value.
  int next_op_ = 0;
  int completed_ = 0;
  int preload_next_ = 0;
  int preload_committed_ = 0;
  sim::Time phase_start_ = 0;
  sim::Time crash_time_ = -1;
  sim::NodeId crashed_ = sim::kInvalidNode;
  sim::Time failover_ = -1;
  std::map<std::string, int> aborts_;
};

bool KvRound::TouchesShard0(int op) const {
  for (const std::string& k : specs_[static_cast<size_t>(op)].keys) {
    if (table_.GroupForKey(k) == 0) return true;
  }
  return false;
}

void KvRound::Start(int op) {
  OpState& s = state_[static_cast<size_t>(op)];
  s.start = sim_->now();
  const OpSpec& spec = specs_[static_cast<size_t>(op)];
  if (spec.kind == OpSpec::kRead) {
    const int group = table_.GroupForKey(spec.keys[0]);
    const uint64_t seq = readers_[static_cast<size_t>(group)]->Read(spec.keys[0]);
    read_seq_[{group, seq}] = op;
  } else {
    SubmitWrite(op);
  }
}

void KvRound::SubmitWrite(int op) {
  OpState& s = state_[static_cast<size_t>(op)];
  const OpSpec& spec = specs_[static_cast<size_t>(op)];
  ++s.attempts;
  Attempt a;
  a.op = op;
  a.keys = spec.keys;
  a.value = spec.kind == OpSpec::kMultiWord
                ? MultiWordValue(op)
                : "v" + std::to_string(op) + "." + std::to_string(s.attempts);
  a.start = sim_->now();
  std::vector<shard::TxOp> ops;
  for (const std::string& k : spec.keys) ops.push_back(shard::TxOp::Put(k, a.value));
  const uint64_t id = port_->Begin(std::move(ops));
  attempts_[id] = std::move(a);
}

void KvRound::SubmitPreload(int first_key) {
  Attempt a;
  std::vector<shard::TxOp> ops;
  for (int i = first_key; i < first_key + kPreloadPerTx && i < kPreloadKeys; ++i) {
    a.keys.push_back(Key(i));
    ops.push_back(shard::TxOp::Put(Key(i), PreloadValue(i)));
  }
  a.preload_first = first_key;
  a.start = sim_->now();
  const uint64_t id = port_->Begin(std::move(ops));
  attempts_[id] = std::move(a);
}

void KvRound::OnOutcome(const shard::TxOutcomeMsg& m) {
  auto it = attempts_.find(m.tx_id);
  if (it == attempts_.end()) return;
  Attempt& a = it->second;
  a.end = sim_->now();
  a.committed = m.committed;
  if (a.op < 0) {  // Preload.
    const int first = a.preload_first;
    if (!m.committed) {
      port_->After(kAbortBackoff, [this, first] { SubmitPreload(first); });
    } else if (++preload_committed_, preload_next_ < kPreloadKeys) {
      SubmitPreload(preload_next_);
      preload_next_ += kPreloadPerTx;
    }
    return;
  }
  const int op = a.op;
  if (!m.committed) {
    if (const char* name = AbortMetric(m.reason)) ++aborts_[name];
    port_->After(kAbortBackoff, [this, op] { SubmitWrite(op); });
    return;
  }
  Complete(op);
}

void KvRound::OnRead(int group, uint64_t seq, const std::string& result) {
  auto rb = readback_seq_.find({group, seq});
  if (rb != readback_seq_.end()) {
    readback_[rb->second] = result;
    readback_seq_.erase(rb);
    return;
  }
  auto it = read_seq_.find({group, seq});
  if (it == read_seq_.end()) return;
  const int op = it->second;
  read_seq_.erase(it);
  state_[static_cast<size_t>(op)].read_value = result;
  Complete(op);
}

void KvRound::Complete(int op) {
  OpState& s = state_[static_cast<size_t>(op)];
  s.end = sim_->now();
  ++completed_;
  if (crash_time_ >= 0 && failover_ < 0 && s.start >= crash_time_ &&
      TouchesShard0(op)) {
    failover_ = s.end - crash_time_;
  }
  if (next_op_ < kOps) Start(next_op_++);
}

Round KvRound::Run(uint64_t sim_seed, bool traced) {
  Round round;
  Tracer tracer;
  bool in_phase = false;

  const double t0 = WallNow();
  shard::ShardOptions options;
  options.shards = kShards;
  options.client_window = kWindow;
  options.batch_size = 16;
  options.batch_delay = 1 * kMillisecond;
  options.snapshot_threshold = 1024;
  ssm_ = std::make_unique<shard::ShardedStateMachine>(options);
  PhaseProbe probe(ssm_.get());
  auto config =
      sim::Simulation::Builder(sim_seed).Setup([this](sim::Simulation& s) {
        ssm_->Build(&s);
        for (int g = 0; g < kShards; ++g) {
          readers_.push_back(s.Spawn<consensus::GroupClient>(
              ssm_->shard_group(g), 300 * kMillisecond, kWindow));
          readers_.back()->SetCallback(
              [this, g](uint64_t seq, const std::string& r, bool) { OnRead(g, seq, r); });
        }
        port_ = s.Spawn<TxPort>(ssm_->coordinator_id(),
                                [this](const shard::TxOutcomeMsg& m) { OnOutcome(m); });
      });
  if (traced) {
    tracer.SetEnvelopeFn([&](const sim::Envelope& env, sim::Time t) {
      if (in_phase) probe.OnEnvelope(env, t);
    });
    config.Trace(tracer.Hook());
  }
  std::unique_ptr<sim::Simulation> owner = config.Build();
  sim_ = owner.get();
  if (traced) MapShardLayers(*ssm_, {port_->id()}, &tracer);

  // Set-up: elections, then the preload through multi-key transactions.
  sim_->RunFor(500 * kMillisecond);
  for (int i = 0; i < kPreloadOutstanding; ++i) {
    SubmitPreload(preload_next_);
    preload_next_ += kPreloadPerTx;
  }
  const int preload_txs = (kPreloadKeys + kPreloadPerTx - 1) / kPreloadPerTx;
  if (!sim_->RunUntil([&] { return preload_committed_ == preload_txs; },
                      sim_->now() + kHorizon)) {
    round.Fail("preload did not finish");
    return round;
  }
  round.setup_s = WallNow() - t0;

  // Timed phase.
  const sim::NetStats base = sim_->stats();
  phase_start_ = sim_->now();
  in_phase = true;
  Stepper stepper(sim_, traced ? &tracer : nullptr);
  const double t1 = WallNow();
  for (int i = 0; i < kOutstanding; ++i) Start(next_op_++);
  const bool finished = stepper.RunUntil(
      [&] {
        if (crash_time_ < 0 && completed_ >= kOps / 4) {
          crashed_ = ssm_->shard_group(0)->LeaderHint();
          if (crashed_ == sim::kInvalidNode) crashed_ = ssm_->ShardMembers(0)[0];
          sim_->Crash(crashed_);
          crash_time_ = sim_->now();
          const sim::NodeId victim = crashed_;
          sim::Simulation* s = sim_;
          sim_->ScheduleAfter(kRestartAfter, [s, victim] { s->Restart(victim); });
        }
        return completed_ == kOps;
      },
      phase_start_ + kHorizon);
  round.timed_s = WallNow() - t1;
  in_phase = false;
  const sim::Time phase_end = sim_->now();
  if (!finished) {
    round.Fail("timed phase did not finish: " + std::to_string(completed_) +
               "/" + std::to_string(kOps) + " operations");
    return round;
  }

  // Quiesce (the restarted replica catches up, commit indexes propagate),
  // then read the multi-word keys back through the ordinary read path.
  sim_->RunFor(3 * kSecond);
  for (const OpSpec& spec : specs_) {
    if (spec.kind != OpSpec::kMultiWord) continue;
    const int group = table_.GroupForKey(spec.keys[0]);
    readback_seq_[{group, readers_[static_cast<size_t>(group)]->Read(spec.keys[0])}] =
        spec.keys[0];
  }
  sim_->RunUntil([&] { return readback_seq_.empty(); }, sim_->now() + kHorizon);

  // Metrics.
  const sim::NetStats& st = sim_->stats();
  const double ops = kOps;
  const double vsec = static_cast<double>(phase_end - phase_start_) / kSecond;
  std::vector<double> write_ms, read_ms;
  int64_t commits = 0, tx_attempts = 0;
  for (size_t i = 0; i < specs_.size(); ++i) {
    const double ms = static_cast<double>(state_[i].end - state_[i].start) / 1000.0;
    if (specs_[i].kind == OpSpec::kRead) {
      read_ms.push_back(ms);
    } else {
      write_ms.push_back(ms);
      ++commits;
      tx_attempts += state_[i].attempts;
    }
  }
  Check(&round);
  round.attempted = kOps;
  round.det["events_per_op"] = {static_cast<double>(stepper.steps()) / ops, "count"};
  round.det["msgs_per_op"] = {
      static_cast<double>(st.messages_sent - base.messages_sent) / ops, "count"};
  round.det["ops_per_vsec"] = {static_cast<double>(kOps - round.failed) / vsec, "1/s"};
  round.det["op_p50_vms"] = {Percentile(write_ms, 0.5), "vms"};
  round.det["op_p90_vms"] = {Percentile(write_ms, 0.9), "vms"};

  Metrics& L = round.det_layers;
  L["workload.op_p99_vms"] = {Percentile(write_ms, 0.99), "vms"};
  L["workload.read_p50_vms"] = {Percentile(read_ms, 0.5), "vms"};
  L["workload.failover_vms"] = {static_cast<double>(failover_) / 1000.0, "vms"};
  L["sim.bytes_per_op"] = {static_cast<double>(st.bytes_sent - base.bytes_sent) / ops, "B"};
  L["sim.dropped_per_op"] = {
      static_cast<double>(st.messages_dropped - base.messages_dropped) / ops, "count"};
  L["raft.append_msgs_per_op"] = {SentSince(st, base, "append-entries") / ops, "count"};
  L["raft.vote_msgs"] = {SentSince(st, base, "request-vote"), "count"};
  L["consensus.requests_per_op"] = {SentSince(st, base, "request") / ops, "count"};
  L["shard.attempts_per_commit"] = {
      static_cast<double>(tx_attempts) / static_cast<double>(commits), "count"};
  for (const auto& [name, n] : aborts_) L[name] = {static_cast<double>(n), "count"};
  L["shard.snapshot_restarts"] = {
      static_cast<double>(ssm_->coordinator()->snapshot_restarts()), "count"};

  if (traced) {
    probe.Fill(&L);
    Metrics& H = round.host_layers;
    const Tracer::Bucket timers = tracer.timers();
    L["sim.timer_events_per_op"] = {static_cast<double>(timers.events) / ops, "count"};
    H["sim.ns_per_event"] = {timers.ns / static_cast<double>(timers.events), "ns"};
    H["raft.self_us_per_op"] = {tracer.Layer(kLayerRaft).ns / 1000.0 / ops, "us"};
    H["raft.decision_self_us_per_txn"] = {
        tracer.Layer(kLayerDecision).ns / 1000.0 / static_cast<double>(commits), "us"};
    H["consensus.client_self_us_per_op"] = {
        tracer.Layer(kLayerClient).ns / 1000.0 / ops, "us"};
    H["shard.tm_self_us_per_txn"] = {
        tracer.Layer(kLayerTm).ns / 1000.0 / static_cast<double>(commits), "us"};
    H["shard.coord_self_us_per_txn"] = {
        tracer.Layer(kLayerCoord).ns / 1000.0 / static_cast<double>(commits), "us"};
  }
  return round;
}

void KvRound::Check(Round* round) {
  // Committed writers per key, in the order of their outcomes.
  std::map<std::string, std::vector<const Attempt*>> writers;
  std::map<std::string, const Attempt*> by_value;
  for (const auto& [id, a] : attempts_) {
    if (a.op < 0) continue;
    by_value[a.value] = &a;
    if (a.committed) {
      for (const std::string& k : a.keys) writers[k].push_back(&a);
    }
  }
  // Whether a committed transaction wrote `value` to `key`, and when its
  // writer finished; the preload finished when the timed phase began.
  auto writer_of = [&](const std::string& key, const std::string& value,
                       sim::Time* finished) {
    if (value == PreloadValue(std::stoi(key.substr(1)))) {
      *finished = phase_start_;
      return true;
    }
    auto it = by_value.find(value);
    if (it == by_value.end() || !it->second->committed) return false;
    *finished = it->second->end;
    for (const std::string& k : it->second->keys) {
      if (k == key) return true;
    }
    return false;
  };
  // A committed writer of `key` that began after `finished` follows that
  // writer in real time, so its value cannot be the final one.
  auto superseded = [&](const std::string& key, sim::Time finished) {
    auto it = writers.find(key);
    if (it == writers.end()) return false;
    for (const Attempt* a : it->second) {
      if (a->start > finished) return true;
    }
    return false;
  };

  // Reads: a 2PC outcome reaches the client before the participants
  // apply its writes, so a read may trail a commit it follows in real
  // time (NIL for a key whose preload has not been applied yet, or an
  // older value). It must never show a value no committed transaction
  // wrote to that key.
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].kind != OpSpec::kRead) continue;
    const std::string& key = specs_[i].keys[0];
    const std::string& value = state_[i].read_value;
    sim::Time finished = 0;
    if (value != "NIL" && !writer_of(key, value, &finished)) {
      round->Fail("read of " + key + " returned \"" + value +
                  "\", which no committed transaction wrote there");
    }
  }

  // Final state, replayed from the never-crashed replicas.
  std::set<sim::NodeId> crashed = {crashed_};
  std::map<std::string, std::string> final_values;
  size_t commands = 0, keys = 0;
  double apply_ns = 0, dedup_ns = 0;
  for (int g = 0; g < kShards; ++g) {
    Replay r = ReplayGroup(*sim_, *ssm_->shard_group(g), crashed,
                           "shard " + std::to_string(g), round);
    for (int i = 0; i < kPreloadKeys; ++i) {
      if (table_.GroupForKey(Key(i)) != g) continue;
      std::optional<std::string> v = r.store.Get(Key(i));
      final_values[Key(i)] = v.value_or("NIL");
    }
    commands += r.commands;
    keys += r.store.size();
    apply_ns += r.apply_ns;
    dedup_ns += r.dedup_ns;
  }
  ReplayGroup(*sim_, *ssm_->decision_group(), crashed, "decision group", round);
  for (const auto& [key, value] : final_values) {
    sim::Time finished = 0;
    if (!writer_of(key, value, &finished)) {
      round->Fail("final value of " + key + " is \"" + value +
                  "\", which no committed transaction wrote there");
    } else if (superseded(key, finished)) {
      round->Fail("final value of " + key + " is \"" + value +
                  "\", but a later committed write followed it");
    }
  }
  round->det_layers["smr.store_keys"] = {static_cast<double>(keys), "count"};
  round->host_layers["smr.apply_ns_per_cmd"] = {apply_ns / static_cast<double>(commands), "ns"};
  round->host_layers["smr.dedup_ns_per_cmd"] = {dedup_ns / static_cast<double>(commands), "ns"};

  // The known fault: multi-word values are cut at the first space.
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].kind != OpSpec::kMultiWord) continue;
    auto it = readback_.find(specs_[i].keys[0]);
    if (it == readback_.end()) {
      round->Fail("multi-word key " + specs_[i].keys[0] + " was never read back");
    } else if (it->second != MultiWordValue(static_cast<int>(i))) {
      ++round->failed;
    }
  }
}

}  // namespace

std::unique_ptr<Workload> MakeKvBatched(uint64_t seed) {
  return std::make_unique<KvBatched>(seed);
}

Round KvBatched::Run(bool traced) {
  KvRound r(ops_, table_);
  return r.Run(sim_seed_, traced);
}

}  // namespace perfbench
