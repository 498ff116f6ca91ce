// Shared plumbing of the consensus40 benchmark: the benchmark's own input
// generator, timing helpers, the per-round result record, and the catalog
// of per-layer metrics every traced run prints.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace perfbench {

/// SplitMix64. The benchmark draws every input from this generator, not
/// from the library's Rng, so a change to the program cannot change what
/// the benchmark submits.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the run seed and a tag.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// Host steady-clock seconds.
double WallNow();

/// Messages of one type admitted between two NetStats snapshots.
double SentSince(const consensus40::sim::NetStats& now,
                 const consensus40::sim::NetStats& base, const char* type);

/// Nearest-rank percentile (q in [0, 1]) of a sample; 0 when empty.
double Percentile(std::vector<double> v, double q);

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One round of a workload: set-up, the timed phase, and the output
/// checks. Rounds of one run replay the same inputs, so everything in
/// `det` must come out identical in every round.
struct Round {
  bool correct = true;
  std::vector<std::string> errors;
  int64_t attempted = 0;  ///< Logical operations submitted.
  int64_t failed = 0;     ///< Of those, operations whose result was wrong.
  double setup_s = 0;     ///< Host wall time of the set-up.
  double timed_s = 0;     ///< Host wall time of the timed phase.
  Metrics det;         ///< End-to-end virtual-time figures and counts.
  Metrics det_layers;  ///< Per-layer virtual-time figures and counts.
  Metrics host_layers;  ///< Per-layer host-time figures (traced rounds).

  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one round. `traced` installs the step tracer (trace.h) and
  /// fills the host-time per-layer figures.
  virtual Round Run(bool traced) = 0;
};

std::unique_ptr<Workload> MakeKvBatched(uint64_t seed);
std::unique_ptr<Workload> MakeTxnContended(uint64_t seed);
std::unique_ptr<Workload> MakeSweep(uint64_t seed);
std::unique_ptr<Workload> MakeChain(uint64_t seed);

/// The in-bounds adapters the sweep reports one by one:
/// check::AllInBoundsAdapters() less the ones sweep.cc leaves out.
inline constexpr const char* kRosterNames[] = {
    "paxos",        "multi_paxos",   "fast_paxos", "raft",
    "pbft",         "minbft",        "hotstuff",   "xft",
    "zyzzyva",      "cheapbft",      "2pc",        "3pc",
    "benor",        "floodset",      "crossword",  "shard",
    "raft_batched", "multi_paxos_batched",         "shard_batched",
    "shard_reshard", "shard_txn",    "zyzzyva_byz", "hotstuff_byz"};
/// The out-of-bounds adapters the sweep runs beside them, in its order.
inline constexpr const char* kOutOfBoundsNames[] = {
    "paxos_oob",     "floodset_oob",  "pbft_oob",
    "2pc_blocking",  "crossword_oob", "shard_txn_no_read_locks",
    "shard_reshard_oob"};

/// Every per-layer metric, as (name, unit), in output order. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog();

/// Advances a simulation through Simulation::RunUntil, counting its
/// events (Step calls). With a tracer attached every event is timed and
/// charged to a layer.
class Tracer;
class Stepper {
 public:
  Stepper(consensus40::sim::Simulation* sim, Tracer* tracer)
      : sim_(sim), tracer_(tracer) {}
  /// Runs events until `done()` holds after one, or no event is left at
  /// or before `deadline`. Returns whether `done()` held.
  bool RunUntil(const std::function<bool()>& done,
                consensus40::sim::Time deadline);
  uint64_t steps() const { return steps_; }

 private:
  consensus40::sim::Simulation* sim_;
  Tracer* tracer_;
  uint64_t steps_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
