// sweep: check::RunSweep over the in-bounds roster
// (check::AllInBoundsAdapters less kSweepExcluded) plus the out-of-bounds
// must-violate adapters with shrinking on, on a pool of at most nproc
// workers. The in-bounds seed range is derived from the run seed and lies
// in [1, kSeedSpan]; each out-of-bounds adapter sweeps a fixed range in
// which it is known to violate.
//
// Every factory is wrapped so that each simulated schedule reports its
// event count (the checker polls Done() once per event), its messages,
// and the virtual time at which its workload finished.
//
// Checks: in-bounds adapters report no violation (schedules of a protocol
// that makes no liveness claim, such as blocking 2PC, may stay
// incomplete); every out-of-bounds adapter violates, its first repro is
// reproduced by shrinking the same seed again, and that shrunk schedule,
// replayed alone, still violates.

#include <algorithm>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "check/adapters.h"
#include "check/checker.h"
#include "check/fault_schedule.h"
#include "check/parallel_sweep.h"
#include "check/shrink.h"
#include "common/thread_pool.h"

namespace perfbench {
namespace {

namespace check = consensus40::check;
namespace sim = consensus40::sim;

constexpr uint64_t kInBoundsSeeds = 300;
/// In-bounds seed ranges are [1 + (seed % kRanges) * kInBoundsSeeds, ...):
/// every schedule seed of [1, kRanges * kInBoundsSeeds] was scanned clean
/// for the adapters the sweep runs.
constexpr uint64_t kRanges = 60;
constexpr int kMaxWorkers = 2;

/// In-bounds adapters left out: each violates on a few seeds of a wide
/// scan, so a run's outcome would depend on its seed.
constexpr const char* kSweepExcluded[] = {
    "crossword_rs", "xft_byz", "minbft_byz", "pbft_byz", "cheapbft_byz"};

/// Out-of-bounds adapters and the fixed seed ranges they sweep; each range
/// holds violating seeds (paxos_oob first violates at seed 29).
struct OutOfBounds {
  const char* name;
  check::AdapterFactory factory;
  uint64_t first_seed;
  uint64_t seeds;
};

std::vector<OutOfBounds> OutOfBoundsRoster() {
  return {
      {kOutOfBoundsNames[0], check::MakePaxosOutOfBoundsAdapter(), 29, 10},
      {kOutOfBoundsNames[1], check::MakeFloodSetOutOfBoundsAdapter(), 1, 10},
      {kOutOfBoundsNames[2], check::MakePbftOutOfBoundsAdapter(), 1, 10},
      {kOutOfBoundsNames[3], check::MakeTwoPhaseCommitBlockingAdapter(), 1, 10},
      {kOutOfBoundsNames[4], check::MakeCrosswordOutOfBoundsAdapter(), 1, 10},
      {kOutOfBoundsNames[5], check::MakeShardTxnNoReadLocksAdapter(), 1, 10},
      {kOutOfBoundsNames[6], check::MakeShardReshardOutOfBoundsAdapter(), 1, 10},
  };
}

/// Totals over every simulated schedule, merged across pool workers.
struct Tally {
  std::mutex mu;
  uint64_t events = 0;
  uint64_t messages = 0;
  sim::Time virtual_us = 0;  ///< Integer, so the sum is order-free.
  std::vector<double> done_ms;  ///< In-bounds schedules that finished.
};

/// Forwards to the wrapped adapter and records what its schedule cost.
class CountingAdapter : public check::ProtocolAdapter {
 public:
  CountingAdapter(std::unique_ptr<check::ProtocolAdapter> inner, Tally* tally,
                  bool record_latency)
      : inner_(std::move(inner)), tally_(tally), record_latency_(record_latency) {}

  ~CountingAdapter() override {
    if (sim_ == nullptr) return;  // Built never: a bounds probe.
    std::lock_guard<std::mutex> lock(tally_->mu);
    tally_->events += polls_;
    tally_->messages += messages_;
    tally_->virtual_us += end_;
    if (record_latency_ && done_at_ >= 0) {
      tally_->done_ms.push_back(static_cast<double>(done_at_) / 1000.0);
    }
  }

  const char* name() const override { return inner_->name(); }
  check::FaultBounds bounds() const override { return inner_->bounds(); }
  void Build(sim::Simulation* sim) override {
    sim_ = sim;
    inner_->Build(sim);
  }
  bool Done() const override {
    ++polls_;
    const bool done = inner_->Done();
    if (done && done_at_ < 0 && sim_ != nullptr) done_at_ = sim_->now();
    return done;
  }
  bool ExpectTermination() const override { return inner_->ExpectTermination(); }
  void OnProbe(sim::Simulation* sim) override { inner_->OnProbe(sim); }
  check::Observation Observe() const override {
    if (sim_ != nullptr) {
      messages_ = sim_->stats().messages_sent;
      end_ = sim_->now();
    }
    return inner_->Observe();
  }
  bool RunsDirect() const override { return inner_->RunsDirect(); }
  check::Observation RunDirect(const check::FaultSchedule& schedule) override {
    return inner_->RunDirect(schedule);
  }

 private:
  std::unique_ptr<check::ProtocolAdapter> inner_;
  Tally* tally_;
  bool record_latency_;
  sim::Simulation* sim_ = nullptr;
  mutable uint64_t polls_ = 0;
  mutable sim::Time done_at_ = -1;
  mutable uint64_t messages_ = 0;
  mutable sim::Time end_ = 0;
};

check::AdapterFactory Counting(check::AdapterFactory inner, Tally* tally,
                               bool record_latency) {
  return [inner = std::move(inner), tally, record_latency](uint64_t seed) {
    return std::make_unique<CountingAdapter>(inner(seed), tally, record_latency);
  };
}

class Sweep : public Workload {
 public:
  explicit Sweep(uint64_t seed)
      : first_seed_(1 + (seed % kRanges) * kInBoundsSeeds),
        pool_(std::min(kMaxWorkers, consensus40::ThreadPool::Hardware())) {}
  Round Run(bool traced) override;

 private:
  uint64_t first_seed_;
  consensus40::ThreadPool pool_;
};

Round Sweep::Run(bool traced) {
  Round round;
  Tally tally;

  // Set-up: the rosters, and every in-bounds fault schedule generated
  // ahead of the sweep; the sweep's own action counts are checked
  // against them.
  const double t0 = WallNow();
  std::vector<std::pair<const char*, check::AdapterFactory>> in_bounds;
  for (auto& entry : check::AllInBoundsAdapters()) {
    if (std::find_if(std::begin(kSweepExcluded), std::end(kSweepExcluded),
                     [&](const char* x) { return std::string(x) == entry.first; }) ==
        std::end(kSweepExcluded)) {
      in_bounds.push_back(std::move(entry));
    }
  }
  const std::vector<OutOfBounds> oob = OutOfBoundsRoster();
  std::vector<std::pair<const char*, check::AdapterFactory>> counted;
  std::vector<uint64_t> expected_actions;
  for (auto& [name, factory] : in_bounds) {
    counted.emplace_back(name, Counting(factory, &tally, true));
    uint64_t actions = 0;
    for (uint64_t s = first_seed_; s < first_seed_ + kInBoundsSeeds; ++s) {
      actions += check::GenerateSchedule(s, factory(s)->bounds()).actions.size();
    }
    expected_actions.push_back(actions);
  }
  round.setup_s = WallNow() - t0;

  check::SweepOptions in_opts;
  in_opts.first_seed = first_seed_;
  in_opts.seeds = kInBoundsSeeds;
  in_opts.shrink_repros = true;

  std::vector<check::ProtocolSweepResult> in_results;
  std::vector<check::ProtocolSweepResult> oob_results;
  const double t1 = WallNow();
  if (!traced) {
    in_results = check::RunSweep(counted, in_opts, &pool_).protocols;
  } else {
    // One adapter at a time, so each adapter's cost can be read off.
    for (const auto& entry : counted) {
      const double a0 = WallNow();
      check::SweepReport r = check::RunSweep({entry}, in_opts, &pool_);
      round.host_layers[std::string("check.us_per_schedule.") + entry.first] = {
          (WallNow() - a0) * 1e6 / static_cast<double>(kInBoundsSeeds), "us"};
      in_results.push_back(r.protocols[0]);
    }
  }
  for (const OutOfBounds& o : oob) {
    check::SweepOptions opts;
    opts.first_seed = o.first_seed;
    opts.seeds = o.seeds;
    opts.shrink_repros = true;
    oob_results.push_back(
        check::RunSweep({{o.name, Counting(o.factory, &tally, false)}}, opts, &pool_)
            .protocols[0]);
  }
  round.timed_s = WallNow() - t1;

  // Checks.
  uint64_t schedules = 0;
  for (size_t i = 0; i < in_results.size(); ++i) {
    const check::ProtocolSweepResult& r = in_results[i];
    schedules += r.schedules;
    if (r.violations != 0) {
      round.Fail("in-bounds adapter " + r.protocol + " violated: " + r.repros[0]);
    }
    if (r.actions != expected_actions[i]) {
      round.Fail(r.protocol + ": the sweep ran " + std::to_string(r.actions) +
                 " fault actions, its schedules hold " +
                 std::to_string(expected_actions[i]));
    }
  }
  double shrink_s = 0;
  for (size_t i = 0; i < oob_results.size(); ++i) {
    const check::ProtocolSweepResult& r = oob_results[i];
    const OutOfBounds& o = oob[i];
    schedules += r.schedules;
    if (r.violations == 0 || r.repros.empty()) {
      round.Fail(std::string("out-of-bounds adapter ") + o.name + " never violated");
      continue;
    }
    // "seed <n>: <violation> | schedule --seed=<n>: [ ... ]"
    const std::string& repro = r.repros[0];
    const uint64_t seed = std::strtoull(repro.c_str() + 5, nullptr, 10);
    const size_t bar = repro.find(" | ");
    const check::FaultBounds bounds = o.factory(seed)->bounds();
    auto replay = [&](const check::FaultSchedule& s) {
      return check::RunSchedule(o.factory, seed, s).violated();
    };
    const double s0 = WallNow();
    check::ShrinkStats stats;
    check::FaultSchedule shrunk =
        check::ShrinkSchedule(check::GenerateSchedule(seed, bounds), bounds, replay,
                              check::SweepOptions().shrink_max_runs, &stats);
    shrunk = check::CanonicalizeSchedule(std::move(shrunk), bounds, replay, &stats);
    shrink_s += WallNow() - s0;
    round.det_layers[std::string("check.shrink_runs.") + o.name] = {
        static_cast<double>(stats.runs), "count"};
    if (bar == std::string::npos || repro.substr(bar + 3) != shrunk.ToString()) {
      round.Fail(std::string(o.name) + ": shrinking seed " + std::to_string(seed) +
                 " again gave a different repro");
    }
    if (!check::RunSchedule(o.factory, seed, shrunk).violated()) {
      round.Fail(std::string(o.name) + ": shrunk repro no longer violates");
    }
  }
  round.host_layers["check.shrink_ms"] = {shrink_s * 1000.0, "ms"};

  const double ops = static_cast<double>(schedules);
  round.attempted = static_cast<int64_t>(schedules);
  round.det["events_per_op"] = {static_cast<double>(tally.events) / ops, "count"};
  round.det["msgs_per_op"] = {static_cast<double>(tally.messages) / ops, "count"};
  round.det["ops_per_vsec"] = {
      ops / (static_cast<double>(tally.virtual_us) / sim::kSecond), "1/s"};
  round.det["op_p50_vms"] = {Percentile(tally.done_ms, 0.5), "vms"};
  round.det["op_p90_vms"] = {Percentile(tally.done_ms, 0.9), "vms"};
  round.det_layers["workload.op_p99_vms"] = {Percentile(tally.done_ms, 0.99), "vms"};
  return round;
}

}  // namespace

std::unique_ptr<Workload> MakeSweep(uint64_t seed) {
  return std::make_unique<Sweep>(seed);
}

}  // namespace perfbench
