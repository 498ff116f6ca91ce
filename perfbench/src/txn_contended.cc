// txn-contended: a bank on 2 Raft shards plus a spare group. A few hundred
// accounts are preloaded with equal balances, beside a larger set of
// customer records nothing reads until the end. Each transfer reads its two
// accounts through a lock-free snapshot transaction, then moves a small
// amount with a two-op CAS transaction, and starts over as a fresh attempt
// on any abort. Every kAuditEvery completed transfers an all-GET audit
// snapshot reads a few accounts. A third of the way through, shard 0's
// whole range is moved live to the spare group.
//
// Checks: after quiescence a final audit must match the benchmark's own
// ledger account by account, the balances must still sum to the preload,
// and every customer record must read back as preloaded (half of them
// moved with the range). Mid-run audits are per-key linearizable, not
// consistent cuts, so their sums are not checked.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "shard/reshard.h"
#include "shard/routing.h"
#include "shard/shard.h"
#include "shard_port.h"
#include "shard_probe.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace sim = consensus40::sim;
namespace shard = consensus40::shard;
using sim::kMillisecond;
using sim::kSecond;

constexpr int kShards = 2;
constexpr int kAccounts = 256;
constexpr int64_t kBalance = 1000;
constexpr int kRecords = 2048;
constexpr int kPreloadPerTx = 16;
constexpr int kPreloadOutstanding = 32;
constexpr int kRecordsPerCheck = 512;
constexpr int kTransfers = 5000;
constexpr int kConcurrent = 32;
constexpr int kMaxAmount = 5;
constexpr int kAuditEvery = 100;
constexpr int kAudits = kTransfers / kAuditEvery;
constexpr int kAuditKeys = 16;
constexpr sim::Duration kAbortBackoff = 5 * kMillisecond;
constexpr sim::Duration kHorizon = 900 * kSecond;

std::string Account(int i) { return "acct" + std::to_string(i); }
std::string Record(int i) { return "cust" + std::to_string(i); }
std::string RecordValue(int i) { return "record-" + std::to_string(i); }

struct TransferSpec {
  int from = 0;
  int to = 0;
  int64_t amount = 0;
};

class TxnContended : public Workload {
 public:
  explicit TxnContended(uint64_t seed);
  Round Run(bool traced) override;

 private:
  uint64_t sim_seed_;
  std::vector<TransferSpec> transfers_;
  std::vector<std::vector<int>> audits_;
};

TxnContended::TxnContended(uint64_t seed) : sim_seed_(SubSeed(seed, 21)) {
  Gen g(SubSeed(seed, 22));
  for (int i = 0; i < kTransfers; ++i) {
    TransferSpec t;
    t.from = static_cast<int>(g.Below(kAccounts));
    t.to = static_cast<int>(g.Below(kAccounts - 1));
    if (t.to >= t.from) ++t.to;
    t.amount = 1 + static_cast<int64_t>(g.Below(kMaxAmount));
    transfers_.push_back(t);
  }
  for (int a = 0; a < kAudits; ++a) {
    std::set<int> keys;
    while (static_cast<int>(keys.size()) < kAuditKeys) {
      keys.insert(static_cast<int>(g.Below(kAccounts)));
    }
    audits_.emplace_back(keys.begin(), keys.end());
  }
}

class TxnRound {
 public:
  TxnRound(const std::vector<TransferSpec>& transfers,
           const std::vector<std::vector<int>>& audits)
      : specs_(transfers), audits_(audits), state_(transfers.size()) {}

  // Simulated processes call back into the round through `this`.
  TxnRound(const TxnRound&) = delete;
  TxnRound& operator=(const TxnRound&) = delete;

  Round Run(uint64_t sim_seed, bool traced);

 private:
  enum class Kind {
    kPreload, kVerify, kRead, kCas, kAudit, kFinalAudit, kRecordCheck
  };
  struct Pending {
    Kind kind;
    int index;  ///< Transfer, audit, or preload batch.
  };
  struct TransferState {
    sim::Time start = -1;
    sim::Time end = -1;
    int attempts = 0;
    int64_t amount = 0;
  };

  void StartTransfer(int t);
  void ReadAccounts(int t);
  void OnOutcome(const shard::TxOutcomeMsg& m);
  void Begin(Kind kind, int index, std::vector<shard::TxOp> ops);
  void TransferDone(int t);
  void SubmitPreload(int batch);

  const std::vector<TransferSpec>& specs_;
  const std::vector<std::vector<int>>& audits_;
  std::vector<TransferState> state_;
  sim::Simulation* sim_ = nullptr;
  std::unique_ptr<shard::ShardedStateMachine> ssm_;
  TxPort* port_ = nullptr;
  Round* round_ = nullptr;

  std::map<uint64_t, Pending> pending_;
  std::vector<int64_t> ledger_ = std::vector<int64_t>(kAccounts, kBalance);
  std::vector<std::vector<shard::TxOp>> preload_;  ///< Batches.
  int preload_next_ = 0;
  int preloaded_ = 0;
  int records_checked_ = 0;
  bool verify_answered_ = false;
  bool verified_ = false;
  int next_transfer_ = 0;
  int transfers_done_ = 0;
  int audits_done_ = 0;
  int next_audit_ = 0;
  std::vector<sim::Time> audit_start_ = std::vector<sim::Time>(kAudits, -1);
  std::vector<double> audit_ms_;
  std::map<std::string, int> aborts_;
  std::vector<int64_t> final_audit_;
  bool final_done_ = false;
};

void TxnRound::Begin(Kind kind, int index, std::vector<shard::TxOp> ops) {
  pending_[port_->Begin(std::move(ops))] = Pending{kind, index};
}

void TxnRound::SubmitPreload(int batch) {
  Begin(Kind::kPreload, batch, preload_[static_cast<size_t>(batch)]);
}

void TxnRound::StartTransfer(int t) {
  state_[static_cast<size_t>(t)].start = sim_->now();
  ReadAccounts(t);
}

void TxnRound::ReadAccounts(int t) {
  const TransferSpec& s = specs_[static_cast<size_t>(t)];
  ++state_[static_cast<size_t>(t)].attempts;
  Begin(Kind::kRead, t,
        {shard::TxOp::Get(Account(s.from)), shard::TxOp::Get(Account(s.to))});
}

void TxnRound::TransferDone(int t) {
  TransferState& st = state_[static_cast<size_t>(t)];
  const TransferSpec& s = specs_[static_cast<size_t>(t)];
  st.end = sim_->now();
  ledger_[static_cast<size_t>(s.from)] -= st.amount;
  ledger_[static_cast<size_t>(s.to)] += st.amount;
  ++transfers_done_;
  if (transfers_done_ % kAuditEvery == 0 && next_audit_ < kAudits) {
    const int a = next_audit_++;
    audit_start_[static_cast<size_t>(a)] = sim_->now();
    std::vector<shard::TxOp> ops;
    for (int acct : audits_[static_cast<size_t>(a)]) {
      ops.push_back(shard::TxOp::Get(Account(acct)));
    }
    Begin(Kind::kAudit, a, std::move(ops));
  }
  if (next_transfer_ < kTransfers) StartTransfer(next_transfer_++);
}

/// Reads of a committed all-GET transaction, in op order. False when a
/// read is missing (absent key, or a re-submitted transaction reported
/// without reads); a value that is not a balance is also a failure.
bool Balances(const shard::TxOutcomeMsg& m, size_t n, std::vector<int64_t>* out,
              Round* round) {
  out->assign(n, 0);
  std::vector<bool> seen(n, false);
  for (const shard::TxReadResult& r : m.reads) {
    if (r.op_index < 0 || static_cast<size_t>(r.op_index) >= n || !r.found) {
      return false;
    }
    char* end = nullptr;
    (*out)[static_cast<size_t>(r.op_index)] = std::strtoll(r.value.c_str(), &end, 10);
    if (r.value.empty() || *end != '\0') {
      round->Fail("snapshot read returned \"" + r.value + "\", not a balance");
      return false;
    }
    seen[static_cast<size_t>(r.op_index)] = true;
  }
  for (bool s : seen) {
    if (!s) return false;
  }
  return true;
}

void TxnRound::OnOutcome(const shard::TxOutcomeMsg& m) {
  auto it = pending_.find(m.tx_id);
  if (it == pending_.end()) return;
  const Pending p = it->second;
  pending_.erase(it);
  if (!m.committed) {
    if (const char* name = AbortMetric(m.reason)) ++aborts_[name];
  }
  switch (p.kind) {
    case Kind::kPreload:
      if (!m.committed) {
        port_->After(kAbortBackoff, [this, b = p.index] { SubmitPreload(b); });
      } else if (++preloaded_, preload_next_ < static_cast<int>(preload_.size())) {
        SubmitPreload(preload_next_++);
      }
      return;
    case Kind::kRecordCheck: {
      const int first = p.index;
      const int n = std::min(kRecordsPerCheck, kRecords - first);
      std::vector<bool> seen(static_cast<size_t>(n), false);
      for (const shard::TxReadResult& r : m.reads) {
        if (r.op_index < 0 || r.op_index >= n) continue;
        seen[static_cast<size_t>(r.op_index)] =
            r.found && r.value == RecordValue(first + r.op_index);
      }
      for (int i = 0; i < n; ++i) {
        if (!m.committed || !seen[static_cast<size_t>(i)]) {
          round_->Fail(Record(first + i) + " did not read back as preloaded");
          break;
        }
      }
      ++records_checked_;
      return;
    }
    case Kind::kVerify: {
      std::vector<int64_t> b;
      verified_ = m.committed && Balances(m, kAccounts, &b, round_) &&
                  b == std::vector<int64_t>(kAccounts, kBalance);
      verify_answered_ = true;
      return;
    }
    case Kind::kRead: {
      std::vector<int64_t> b;
      if (!m.committed || !Balances(m, 2, &b, round_)) {
        port_->After(kAbortBackoff, [this, t = p.index] { ReadAccounts(t); });
        return;
      }
      TransferState& st = state_[static_cast<size_t>(p.index)];
      const TransferSpec& s = specs_[static_cast<size_t>(p.index)];
      st.amount = std::min(s.amount, b[0]);
      Begin(Kind::kCas, p.index,
            {shard::TxOp::Cas(Account(s.from), std::to_string(b[0]),
                              std::to_string(b[0] - st.amount)),
             shard::TxOp::Cas(Account(s.to), std::to_string(b[1]),
                              std::to_string(b[1] + st.amount))});
      return;
    }
    case Kind::kCas:
      if (m.committed) {
        TransferDone(p.index);
      } else {
        port_->After(kAbortBackoff, [this, t = p.index] { ReadAccounts(t); });
      }
      return;
    case Kind::kAudit: {
      std::vector<int64_t> b;
      if (!m.committed ||
          !Balances(m, audits_[static_cast<size_t>(p.index)].size(), &b, round_)) {
        round_->Fail("audit snapshot " + std::to_string(p.index) + " failed");
        return;
      }
      audit_ms_.push_back(
          static_cast<double>(sim_->now() - audit_start_[static_cast<size_t>(p.index)]) /
          1000.0);
      ++audits_done_;
      return;
    }
    case Kind::kFinalAudit:
      if (!m.committed || !Balances(m, kAccounts, &final_audit_, round_)) {
        round_->Fail("final audit failed");
      }
      final_done_ = true;
      return;
  }
}

Round TxnRound::Run(uint64_t sim_seed, bool traced) {
  Round round;
  round_ = &round;
  Tracer tracer;
  bool in_phase = false;
  sim::Time freeze_at = -1, unfreeze_at = -1;

  const double t0 = WallNow();
  shard::ShardOptions options;
  options.shards = kShards;
  options.spare_groups = 1;
  options.client_window = 8;
  options.batch_size = 8;
  options.batch_delay = 1 * kMillisecond;
  options.snapshot_threshold = 1024;
  ssm_ = std::make_unique<shard::ShardedStateMachine>(options);
  PhaseProbe probe(ssm_.get());
  auto config =
      sim::Simulation::Builder(sim_seed).Setup([this](sim::Simulation& s) {
        ssm_->Build(&s);
        port_ = s.Spawn<TxPort>(ssm_->coordinator_id(),
                                [this](const shard::TxOutcomeMsg& m) { OnOutcome(m); });
      });
  if (traced) {
    tracer.SetEnvelopeFn([&](const sim::Envelope& env, sim::Time t) {
      if (!in_phase) return;
      probe.OnEnvelope(env, t);
      if (dynamic_cast<const shard::MoveFreezeMsg*>(env.msg.get()) && freeze_at < 0) {
        freeze_at = t;
      } else if (dynamic_cast<const shard::MoveUnfreezeMsg*>(env.msg.get()) &&
                 unfreeze_at < 0) {
        unfreeze_at = t;
      }
    });
    config.Trace(tracer.Hook());
  }
  std::unique_ptr<sim::Simulation> owner = config.Build();
  sim_ = owner.get();
  if (traced) MapShardLayers(*ssm_, {port_->id()}, &tracer);

  // Set-up: elections, then every account through multi-key transactions.
  sim_->RunFor(500 * kMillisecond);
  std::vector<std::string> keys, values;
  for (int i = 0; i < kAccounts; ++i) {
    keys.push_back(Account(i));
    values.push_back(std::to_string(kBalance));
  }
  for (int i = 0; i < kRecords; ++i) {
    keys.push_back(Record(i));
    values.push_back(RecordValue(i));
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % kPreloadPerTx == 0) preload_.emplace_back();
    preload_.back().push_back(shard::TxOp::Put(keys[i], values[i]));
  }
  const int preload_txs = static_cast<int>(preload_.size());
  while (preload_next_ < std::min(kPreloadOutstanding, preload_txs)) {
    SubmitPreload(preload_next_++);
  }
  if (!sim_->RunUntil([&] { return preloaded_ == preload_txs || !round.correct; },
                      sim_->now() + kHorizon) ||
      !round.correct) {
    round.Fail("preload did not finish");
    return round;
  }
  // A commit outcome can reach the client before the participants apply
  // the writes, so set-up ends once a snapshot of every account reads the
  // preloaded balance back.
  for (int tries = 0; !verified_; ++tries) {
    if (tries == 100) {
      round.Fail("preloaded balances never became readable");
      return round;
    }
    verify_answered_ = false;
    std::vector<shard::TxOp> all;
    for (int i = 0; i < kAccounts; ++i) all.push_back(shard::TxOp::Get(Account(i)));
    Begin(Kind::kVerify, 0, std::move(all));
    sim_->RunUntil([&] { return verify_answered_; }, sim_->now() + kHorizon);
    if (!verified_) sim_->RunFor(10 * kMillisecond);
  }
  round.setup_s = WallNow() - t0;

  // Timed phase.
  const sim::NetStats base = sim_->stats();
  const sim::Time phase_start = sim_->now();
  sim::Time move_start = -1, move_end = -1;
  in_phase = true;
  Stepper stepper(sim_, traced ? &tracer : nullptr);
  const double t1 = WallNow();
  for (int i = 0; i < kConcurrent; ++i) StartTransfer(next_transfer_++);
  const bool finished = stepper.RunUntil(
      [&] {
        if (move_start < 0 && transfers_done_ >= kTransfers / 3) {
          shard::MoveSpec spec;
          spec.lo = 0;
          spec.hi = ssm_->InitialTable().entries()[1].lo;
          spec.to = kShards;  // The spare group.
          if (!ssm_->mover()->StartMove(spec)) round.Fail("move rejected");
          move_start = sim_->now();
        }
        if (move_start >= 0 && move_end < 0 && ssm_->mover()->moves_done() >= 1) {
          move_end = sim_->now();
        }
        return (transfers_done_ == kTransfers && audits_done_ == kAudits &&
                move_end >= 0) ||
               !round.correct;
      },
      phase_start + kHorizon);
  round.timed_s = WallNow() - t1;
  in_phase = false;
  const sim::Time phase_end = sim_->now();
  if (!finished || !round.correct) {
    round.Fail("timed phase did not finish: " + std::to_string(transfers_done_) +
               " transfers, " + std::to_string(audits_done_) + " audits");
    return round;
  }

  // Quiesce, then the final audit of every account.
  sim_->RunFor(3 * kSecond);
  std::vector<shard::TxOp> all;
  for (int i = 0; i < kAccounts; ++i) all.push_back(shard::TxOp::Get(Account(i)));
  Begin(Kind::kFinalAudit, 0, std::move(all));
  sim_->RunUntil([&] { return final_done_; }, sim_->now() + kHorizon);
  if (!final_done_) round.Fail("final audit never finished");
  const int record_checks = (kRecords + kRecordsPerCheck - 1) / kRecordsPerCheck;
  for (int first = 0; first < kRecords; first += kRecordsPerCheck) {
    std::vector<shard::TxOp> ops;
    for (int i = first; i < std::min(kRecords, first + kRecordsPerCheck); ++i) {
      ops.push_back(shard::TxOp::Get(Record(i)));
    }
    Begin(Kind::kRecordCheck, first, std::move(ops));
  }
  sim_->RunUntil([&] { return records_checked_ == record_checks; },
                 sim_->now() + kHorizon);
  if (records_checked_ != record_checks) round.Fail("record check never finished");
  if (round.correct) {
    int64_t sum = 0;
    for (int i = 0; i < kAccounts; ++i) {
      sum += final_audit_[static_cast<size_t>(i)];
      if (final_audit_[static_cast<size_t>(i)] != ledger_[static_cast<size_t>(i)]) {
        round.Fail(Account(i) + " holds " +
                   std::to_string(final_audit_[static_cast<size_t>(i)]) +
                   ", the ledger says " + std::to_string(ledger_[static_cast<size_t>(i)]));
      }
    }
    if (sum != kAccounts * kBalance) {
      round.Fail("balances sum to " + std::to_string(sum) + ", not " +
                 std::to_string(kAccounts * kBalance));
    }
  }
  size_t commands = 0;
  double dedup_ns = 0, apply_ns = 0;
  for (int g = 0; g < ssm_->total_groups(); ++g) {
    Replay r = ReplayGroup(*sim_, *ssm_->shard_group(g), {},
                           "group " + std::to_string(g), &round);
    commands += r.commands;
    apply_ns += r.apply_ns;
    dedup_ns += r.dedup_ns;
  }
  ReplayGroup(*sim_, *ssm_->decision_group(), {}, "decision group", &round);

  // Metrics. An operation is a transfer or an audit.
  const sim::NetStats& st = sim_->stats();
  const double ops = kTransfers + kAudits;
  const double vsec = static_cast<double>(phase_end - phase_start) / kSecond;
  std::vector<double> transfer_ms;
  int64_t attempts = 0;
  for (const TransferState& s : state_) {
    transfer_ms.push_back(static_cast<double>(s.end - s.start) / 1000.0);
    attempts += s.attempts;
  }
  round.attempted = static_cast<int64_t>(ops);
  round.det["events_per_op"] = {static_cast<double>(stepper.steps()) / ops, "count"};
  round.det["msgs_per_op"] = {
      static_cast<double>(st.messages_sent - base.messages_sent) / ops, "count"};
  round.det["ops_per_vsec"] = {ops / vsec, "1/s"};
  round.det["op_p50_vms"] = {Percentile(transfer_ms, 0.5), "vms"};
  round.det["op_p90_vms"] = {Percentile(transfer_ms, 0.9), "vms"};

  Metrics& L = round.det_layers;
  L["workload.op_p99_vms"] = {Percentile(transfer_ms, 0.99), "vms"};
  L["workload.read_p50_vms"] = {Percentile(audit_ms_, 0.5), "vms"};
  L["workload.move_vms"] = {static_cast<double>(move_end - move_start) / 1000.0, "vms"};
  L["sim.bytes_per_op"] = {static_cast<double>(st.bytes_sent - base.bytes_sent) / ops, "B"};
  L["sim.dropped_per_op"] = {
      static_cast<double>(st.messages_dropped - base.messages_dropped) / ops, "count"};
  L["raft.append_msgs_per_op"] = {SentSince(st, base, "append-entries") / ops, "count"};
  L["raft.vote_msgs"] = {SentSince(st, base, "request-vote"), "count"};
  L["consensus.requests_per_op"] = {SentSince(st, base, "request") / ops, "count"};
  L["shard.attempts_per_commit"] = {static_cast<double>(attempts) / kTransfers, "count"};
  for (const auto& [name, n] : aborts_) L[name] = {static_cast<double>(n), "count"};
  L["shard.snapshot_restarts"] = {
      static_cast<double>(ssm_->coordinator()->snapshot_restarts()), "count"};
  L["shard.move.bounces"] = {static_cast<double>(ssm_->coordinator()->redirected()),
                             "count"};
  Metrics& H = round.host_layers;
  H["smr.apply_ns_per_cmd"] = {apply_ns / static_cast<double>(commands), "ns"};
  H["smr.dedup_ns_per_cmd"] = {dedup_ns / static_cast<double>(commands), "ns"};
  if (traced) {
    probe.Fill(&L);
    if (freeze_at >= 0 && unfreeze_at >= freeze_at) {
      L["shard.move.frozen_vms"] = {static_cast<double>(unfreeze_at - freeze_at) / 1000.0,
                                    "vms"};
    }
    const Tracer::Bucket timers = tracer.timers();
    L["sim.timer_events_per_op"] = {static_cast<double>(timers.events) / ops, "count"};
    H["sim.ns_per_event"] = {timers.ns / static_cast<double>(timers.events), "ns"};
    H["raft.self_us_per_op"] = {tracer.Layer(kLayerRaft).ns / 1000.0 / ops, "us"};
    H["raft.decision_self_us_per_txn"] = {
        tracer.Layer(kLayerDecision).ns / 1000.0 / kTransfers, "us"};
    H["consensus.client_self_us_per_op"] = {
        tracer.Layer(kLayerClient).ns / 1000.0 / ops, "us"};
    H["shard.tm_self_us_per_txn"] = {tracer.Layer(kLayerTm).ns / 1000.0 / kTransfers,
                                     "us"};
    H["shard.coord_self_us_per_txn"] = {
        tracer.Layer(kLayerCoord).ns / 1000.0 / kTransfers, "us"};
  }
  return round;
}

}  // namespace

std::unique_ptr<Workload> MakeTxnContended(uint64_t seed) {
  return std::make_unique<TxnContended>(seed);
}

Round TxnContended::Run(bool traced) {
  TxnRound r(transfers_, audits_);
  return r.Run(sim_seed_, traced);
}

}  // namespace perfbench
