#include "shard_probe.h"

#include <chrono>
#include <string_view>

#include "raft/raft.h"
#include "shard/reshard.h"

namespace perfbench {

using consensus40::sim::Envelope;
using consensus40::sim::NodeId;
using consensus40::sim::Time;
namespace shard = consensus40::shard;

void MapShardLayers(const shard::ShardedStateMachine& ssm,
                    const std::vector<NodeId>& bench, Tracer* tracer) {
  tracer->SetDefaultLayer(kLayerClient);
  for (int g = 0; g < ssm.total_groups(); ++g) {
    for (NodeId id : ssm.ShardMembers(g)) tracer->SetLayer(id, kLayerRaft);
  }
  for (NodeId id : ssm.decision_group()->members()) {
    tracer->SetLayer(id, kLayerDecision);
  }
  for (int g = 0; g < ssm.total_groups(); ++g) {
    tracer->SetLayer(ssm.tm_id(g), kLayerTm);
  }
  tracer->SetLayer(ssm.coordinator_id(), kLayerCoord);
  tracer->SetLayer(ssm.mover_id(), kLayerMover);
  for (NodeId id : bench) tracer->SetLayer(id, kLayerBench);
}

void PhaseProbe::OnEnvelope(const Envelope& env, Time deliver) {
  const consensus40::sim::Message& msg = *env.msg;
  if (const auto* p = dynamic_cast<const shard::TmPrepareMsg*>(&msg)) {
    (p->one_phase ? one_phase_ : two_pc_).insert(p->tx_id);
    if (!p->one_phase) prepare_sent_.emplace(std::make_pair(p->tx_id, env.to), env.send_time);
  } else if (const auto* v = dynamic_cast<const shard::TmVoteMsg*>(&msg)) {
    auto it = prepare_sent_.find({v->tx_id, env.from});
    if (it == prepare_sent_.end()) return;
    prepare_ms_.push_back(static_cast<double>(deliver - it->second) / 1000.0);
    prepare_sent_.erase(it);
    Time& last = last_vote_[v->tx_id];
    if (deliver > last) last = deliver;
  } else if (const auto* d = dynamic_cast<const shard::TmDecisionMsg*>(&msg)) {
    auto it = last_vote_.find(d->tx_id);
    if (it == last_vote_.end() || !decided_.insert(d->tx_id).second) return;
    decision_ms_.push_back(static_cast<double>(env.send_time - it->second) /
                           1000.0);
  } else if (std::string_view(msg.TypeName()) == "reply") {
    auto reply = ssm_->shard_group(0)->ParseReply(msg);
    if (reply.has_value() && reply->redirected) ++redirects_;
  }
}

void PhaseProbe::Fill(Metrics* m) const {
  (*m)["shard.prepare_p50_vms"] = {Percentile(prepare_ms_, 0.5), "vms"};
  (*m)["shard.decision_p50_vms"] = {Percentile(decision_ms_, 0.5), "vms"};
  (*m)["shard.one_phase_txns"] = {static_cast<double>(one_phase_.size()), "count"};
  (*m)["shard.two_pc_txns"] = {static_cast<double>(two_pc_.size()), "count"};
  (*m)["consensus.redirects"] = {static_cast<double>(redirects_), "count"};
}

Replay ReplayGroup(const consensus40::sim::Simulation& sim,
                   const consensus40::consensus::ReplicaGroup& group,
                   const std::set<NodeId>& crashed, const std::string& label,
                   Round* round) {
  using consensus40::raft::RaftReplica;
  using consensus40::smr::Command;
  Replay out;
  const std::vector<NodeId>& members = group.members();
  // A replica that installed a snapshot knows only the suffix of the
  // history after it, so only the others can be compared command by
  // command; every never-crashed replica must still end in the same state.
  const RaftReplica* live = nullptr;
  int reference = -1;
  std::vector<Command> ref_cmds;
  for (size_t i = 0; i < members.size(); ++i) {
    if (crashed.count(members[i]) != 0) continue;
    const auto* replica = dynamic_cast<const RaftReplica*>(sim.process(members[i]));
    if (replica == nullptr) {
      round->Fail(label + ": replica is not a Raft replica");
      return out;
    }
    if (live == nullptr) {
      live = replica;
    } else if (!(live->kv().StateDigest() == replica->kv().StateDigest())) {
      round->Fail(label + ": never-crashed replicas hold different states");
    }
    if (replica->snapshots_installed() != 0) continue;
    std::vector<Command> cmds = group.CommittedPrefix(static_cast<int>(i));
    if (reference < 0) {
      reference = static_cast<int>(i);
      ref_cmds = std::move(cmds);
    } else if (cmds != ref_cmds) {
      round->Fail(label + ": never-crashed replicas executed different "
                  "command sequences");
    }
  }
  if (live == nullptr) {
    round->Fail(label + ": no never-crashed replica");
    return out;
  }
  if (reference < 0) {
    // Every never-crashed replica bootstrapped from a snapshot: no full
    // history to replay, so the live state stands in for the replay.
    out.store.Restore(live->kv().Snapshot());
    return out;
  }
  out.commands = ref_cmds.size();
  consensus40::smr::KvStore plain;
  auto t0 = std::chrono::steady_clock::now();
  for (const Command& cmd : ref_cmds) plain.Apply(cmd);
  auto t1 = std::chrono::steady_clock::now();
  consensus40::smr::DedupingExecutor dedup;
  for (const Command& cmd : ref_cmds) dedup.Apply(&out.store, cmd);
  auto t2 = std::chrono::steady_clock::now();
  out.apply_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  out.dedup_ns = std::chrono::duration<double, std::nano>(t2 - t1).count();
  if (!(out.store.StateDigest() == live->kv().StateDigest())) {
    round->Fail(label + ": replayed state differs from the replicas' store");
  }
  return out;
}

const char* AbortMetric(shard::TxAbortReason reason) {
  switch (reason) {
    case shard::TxAbortReason::kLockConflict:
      return "shard.aborts.lock_conflict";
    case shard::TxAbortReason::kFrozenRange:
      return "shard.aborts.frozen_range";
    case shard::TxAbortReason::kCasMismatch:
      return "shard.aborts.cas_mismatch";
    case shard::TxAbortReason::kMoved:
      return "shard.aborts.moved";
    case shard::TxAbortReason::kDecisionTimeout:
      return "shard.aborts.decision_timeout";
    case shard::TxAbortReason::kNone:
      break;
  }
  return nullptr;
}

}  // namespace perfbench
