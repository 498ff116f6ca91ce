// Helpers shared by the two shard-layer workloads: process-to-layer
// mapping for the tracer, commit-path phase latencies read off envelope
// send/deliver times, and the replay checks over committed prefixes.

#ifndef PERFBENCH_SHARD_PROBE_H_
#define PERFBENCH_SHARD_PROBE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "shard/shard.h"
#include "sim/simulation.h"
#include "smr/state_machine.h"
#include "trace.h"

namespace perfbench {

/// Layer names the shard workloads charge traced events to.
inline constexpr char kLayerRaft[] = "raft";
inline constexpr char kLayerDecision[] = "raft.decision";
inline constexpr char kLayerTm[] = "shard.tm";
inline constexpr char kLayerCoord[] = "shard.coord";
inline constexpr char kLayerMover[] = "shard.mover";
inline constexpr char kLayerBench[] = "bench";
inline constexpr char kLayerClient[] = "consensus.client";

/// Maps every process of an assembled sharded system to its layer; `bench`
/// lists the benchmark's own processes. Anything else (including readers
/// the coordinator spawns mid-run) is a GroupClient.
void MapShardLayers(const consensus40::shard::ShardedStateMachine& ssm,
                    const std::vector<consensus40::sim::NodeId>& bench,
                    Tracer* tracer);

/// Commit-path phase latencies from envelope times (traced rounds only):
/// prepare = tm-prepare send -> its tm-vote delivery at the coordinator;
/// decision = last vote delivery -> first tm-decision send. Also counts
/// one-phase and two-phase transactions and the redirect replies.
class PhaseProbe {
 public:
  explicit PhaseProbe(const consensus40::shard::ShardedStateMachine* ssm)
      : ssm_(ssm) {}
  void OnEnvelope(const consensus40::sim::Envelope& env,
                  consensus40::sim::Time deliver);
  void Fill(Metrics* det_layers) const;

 private:
  const consensus40::shard::ShardedStateMachine* ssm_;
  std::map<std::pair<uint64_t, consensus40::sim::NodeId>, consensus40::sim::Time>
      prepare_sent_;
  std::map<uint64_t, consensus40::sim::Time> last_vote_;
  std::set<uint64_t> decided_;
  std::set<uint64_t> one_phase_, two_pc_;
  std::vector<double> prepare_ms_, decision_ms_;
  int redirects_ = 0;
};

/// Replay of one group. Never-crashed replicas must hold identical states,
/// and those with a full history (no snapshot installed) must have
/// executed identical command sequences; replaying that sequence through a
/// fresh KvStore behind a DedupingExecutor must reproduce the live state.
/// Problems are reported into `round`.
struct Replay {
  consensus40::smr::KvStore store;  ///< The replayed (or live) final state.
  size_t commands = 0;  ///< Commands replayed; 0 when no full history.
  double apply_ns = 0;  ///< KvStore::Apply over the prefix, no dedup.
  double dedup_ns = 0;  ///< DedupingExecutor::Apply over the prefix.
};
Replay ReplayGroup(const consensus40::sim::Simulation& sim,
                   const consensus40::consensus::ReplicaGroup& group,
                   const std::set<consensus40::sim::NodeId>& crashed,
                   const std::string& label, Round* round);

/// The per-layer counter of aborts for `reason` (nullptr for kNone).
const char* AbortMetric(consensus40::shard::TxAbortReason reason);

}  // namespace perfbench

#endif  // PERFBENCH_SHARD_PROBE_H_
