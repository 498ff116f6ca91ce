#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "trace.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  Gen g(seed * 0x100000001B3ull + tag);
  g.Next();
  return g.Next();
}

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SentSince(const consensus40::sim::NetStats& now,
                 const consensus40::sim::NetStats& base, const char* type) {
  auto n = now.sent_by_type.find(type);
  auto b = base.sent_by_type.find(type);
  return static_cast<double>((n == now.sent_by_type.end() ? 0 : n->second) -
                             (b == base.sent_by_type.end() ? 0 : b->second));
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

bool Stepper::RunUntil(const std::function<bool()>& done,
                       consensus40::sim::Time deadline) {
  // Simulation::RunUntil checks the predicate once before the first event
  // and then after every event.
  bool before_first = true;
  return sim_->RunUntil(
      [&] {
        if (!before_first) {
          ++steps_;
          if (tracer_ != nullptr) tracer_->EndEvent();
        }
        before_first = false;
        if (done()) return true;
        if (tracer_ != nullptr) tracer_->BeginEvent();
        return false;
      },
      deadline);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        {"sim.ns_per_event", "ns"},
        {"sim.timer_events_per_op", "count"},
        {"sim.bytes_per_op", "B"},
        {"sim.dropped_per_op", "count"},
        {"raft.self_us_per_op", "us"},
        {"raft.append_msgs_per_op", "count"},
        {"raft.vote_msgs", "count"},
        {"raft.decision_self_us_per_txn", "us"},
        {"smr.apply_ns_per_cmd", "ns"},
        {"smr.dedup_ns_per_cmd", "ns"},
        {"smr.store_keys", "count"},
        {"consensus.client_self_us_per_op", "us"},
        {"consensus.requests_per_op", "count"},
        {"consensus.redirects", "count"},
        {"shard.tm_self_us_per_txn", "us"},
        {"shard.coord_self_us_per_txn", "us"},
        {"shard.attempts_per_commit", "count"},
        {"shard.aborts.lock_conflict", "count"},
        {"shard.aborts.frozen_range", "count"},
        {"shard.aborts.cas_mismatch", "count"},
        {"shard.aborts.moved", "count"},
        {"shard.aborts.decision_timeout", "count"},
        {"shard.prepare_p50_vms", "vms"},
        {"shard.decision_p50_vms", "vms"},
        {"shard.one_phase_txns", "count"},
        {"shard.two_pc_txns", "count"},
        {"shard.snapshot_restarts", "count"},
        {"shard.move.bounces", "count"},
        {"shard.move.frozen_vms", "vms"},
    };
    for (const char* a : kRosterNames) {
      c.emplace_back(std::string("check.us_per_schedule.") + a, "us");
    }
    for (const char* a : kOutOfBoundsNames) {
      c.emplace_back(std::string("check.shrink_runs.") + a, "count");
    }
    c.emplace_back("check.shrink_ms", "ms");
    for (const auto& m : std::vector<std::pair<const char*, const char*>>{
             {"blockchain.tx_self_us", "us"},
             {"blockchain.block_self_us", "us"},
             {"blockchain.best_chain_us", "us"},
             {"blockchain.stale_blocks", "count"},
             {"blockchain.reorgs", "count"},
             {"workload.op_p99_vms", "vms"},
             {"workload.read_p50_vms", "vms"},
             {"workload.failover_vms", "vms"},
             {"workload.move_vms", "vms"},
             {"trace.overhead", "x"},
         }) {
      c.emplace_back(m.first, m.second);
    }
    return c;
  }();
  return catalog;
}

}  // namespace perfbench
