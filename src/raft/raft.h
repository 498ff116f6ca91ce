#ifndef CONSENSUS40_RAFT_RAFT_H_
#define CONSENSUS40_RAFT_RAFT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"

#include "sim/simulation.h"
#include "smr/command.h"
#include "smr/state_machine.h"

namespace consensus40::smr {
class KvStore;
}

namespace consensus40::raft {

/// Configuration for a Raft replica.
struct RaftOptions {
  /// Cluster size; replicas must be processes 0..n-1.
  int n = 0;

  /// Heartbeat (empty AppendEntries) period.
  sim::Duration heartbeat_interval = 20 * sim::kMillisecond;

  /// Election timeout base; actual timeout uniform in [base, 2*base] —
  /// Raft's randomized timeouts are what keep split votes rare.
  sim::Duration election_timeout = 150 * sim::kMillisecond;

  /// Log compaction: once this many entries are applied beyond the last
  /// snapshot, fold them into a state snapshot and truncate the log.
  /// Followers too far behind receive InstallSnapshot. 0 disables.
  uint64_t snapshot_threshold = 0;

  /// Leader-side batching (mirrors PBFT's batch_size/batch_delay): max
  /// client commands the leader folds into one log entry, and how long
  /// it lingers for a batch to fill. The defaults (1, 0) keep the
  /// one-command-per-entry behaviour bit-for-bit.
  int batch_size = 1;
  sim::Duration batch_delay = 0;

  /// Initial voting configuration; empty = processes 0..n-1.
  std::vector<sim::NodeId> initial_config;

  /// A server being added to an existing cluster starts passive: it does
  /// not campaign until it has heard from a leader (prevents a fresh,
  /// empty server from disrupting the incumbents with election storms).
  bool join_passive = false;
};

/// A Raft replica (Ongaro & Ousterhout 2014): the deck presents Raft as the
/// understandability-first equivalent of Multi-Paxos — terms instead of
/// ballots, leader-integrated log management, randomized elections.
class RaftReplica : public sim::Process {
 public:
  enum class Role { kFollower, kCandidate, kLeader };

  explicit RaftReplica(RaftOptions options);

  struct LogEntry {
    int64_t term = 0;
    smr::Command cmd;
  };

  // --- Client-facing messages ---
  struct RequestMsg : sim::Message {
    explicit RequestMsg(smr::Command c) : cmd(std::move(c)) {}
    const char* TypeName() const override { return "request"; }
    int ByteSize() const override { return 8 + cmd.ByteSize(); }
    smr::Command cmd;
  };
  struct ReplyMsg : sim::Message {
    ReplyMsg(uint64_t s, std::string r, sim::NodeId hint)
        : client_seq(s), result(std::move(r)), leader_hint(hint) {}
    const char* TypeName() const override { return "reply"; }
    int ByteSize() const override {
      return 16 + static_cast<int>(result.size());
    }
    uint64_t client_seq;
    std::string result;
    sim::NodeId leader_hint;
  };
  Role role() const { return role_; }
  bool IsLeader() const { return role_ == Role::kLeader; }
  int64_t current_term() const { return current_term_; }
  /// Who this replica voted for in current_term() (kInvalidNode if nobody).
  /// Persistent: must survive Crash()/Restart(), or a node could grant two
  /// votes in one term and elect two leaders.
  sim::NodeId voted_for() const { return voted_for_; }
  sim::NodeId LeaderHint() const { return leader_hint_; }
  uint64_t commit_index() const { return commit_index_; }
  const std::vector<LogEntry>& raft_log() const { return log_; }
  const smr::KvStore& kv() const { return kv_; }
  int elections_started() const { return elections_started_; }
  /// Multi-command log entries cut by this replica while leader.
  int batches_cut() const { return batches_cut_; }
  const std::vector<std::string>& violations() const { return violations_; }
  /// First global index still held in the log (compaction frontier).
  uint64_t log_start() const { return log_start_; }
  /// Entries currently held in memory (compaction shrinks this).
  size_t LogEntriesHeld() const { return log_.size(); }
  int snapshots_taken() const { return snapshots_taken_; }
  int snapshots_installed() const { return snapshots_installed_; }
  /// Read-index reads answered by this replica while leader.
  int reads_served() const { return reads_served_; }

  /// Commands this replica applied, in order (for shared checkers; a
  /// replica that bootstrapped from a snapshot only knows its suffix).
  std::vector<smr::Command> CommittedCommands() const;

  // --- Membership reconfiguration (single-server-change rule) ---

  /// The voting configuration currently in effect (config entries take
  /// effect as soon as they are APPENDED, per the Raft dissertation).
  const std::vector<sim::NodeId>& config() const { return config_; }

  /// Leader-only: appends a configuration-change entry. Fails if this
  /// replica is not the leader or a config change is still uncommitted
  /// (changes must be applied one at a time).
  Status ChangeConfig(std::vector<sim::NodeId> new_config);

  /// Encodes/decodes configuration log entries.
  static smr::Command MakeConfigCommand(
      const std::vector<sim::NodeId>& config);
  static std::optional<std::vector<sim::NodeId>> ParseConfig(
      const smr::Command& cmd);

  void OnStart() override;
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;
  void OnRestart() override;

 private:
  struct RequestVoteMsg;
  struct VoteReplyMsg;
  struct AppendEntriesMsg;
  struct AppendReplyMsg;
  struct InstallSnapshotMsg;

  void BecomeFollower(int64_t term);
  void StartElection();
  void BecomeLeader();
  void ResetElectionTimer();
  /// Cuts the queued client commands into log entries (one raw entry for
  /// a single command, a batch entry otherwise) and replicates them.
  void FlushBatch();
  /// Re-derives proposed_ from the unapplied log suffix (new leader).
  void RebuildProposed();
  /// Read-index machinery (read-index, no leader lease): the leader
  /// records commit_index as the read index, confirms it is still the
  /// leader with one round of AppendEntries acks, waits until the read
  /// index is applied, and answers from its state machine — no log
  /// entry, no clock assumption (Raft dissertation §6.4). Reads arrive
  /// as kind == kRead commands inside RequestMsg. A read may only be
  /// *registered* once the leader has committed an entry of its own
  /// term (or its log was fully committed at election) — before that,
  /// commit_index may trail the cluster-wide frontier and a read-index
  /// read could miss committed writes. Gated reads wait in
  /// waiting_reads_ for the barrier.
  bool ReadBarrierPassed() const;
  void HandleRead(sim::NodeId from, int32_t client, uint64_t seq,
                  const std::string& key);
  void RegisterRead(sim::NodeId from, uint64_t seq, const std::string& key);
  void MaybeServeReads();
  /// Fails every pending/gated read with a redirect (leadership lost).
  void FailPendingReads();
  /// Re-derives config_ from the last tracked config entry, or the
  /// snapshot config if the log holds none; called after a follower's log
  /// changes (append, truncate, snapshot install).
  void RecomputeConfig();
  /// The only ways log_ changes; each keeps config_indices_ in step.
  void AppendToLog(LogEntry entry);
  /// Drops every entry after global index `index`.
  void TruncateLogAfter(uint64_t index);
  /// Drops the prefix through global index `index` (the whole log if it
  /// ends there) and moves log_start_ to it. Returns the config of the last
  /// dropped config entry, if any.
  std::optional<std::vector<sim::NodeId>> CompactLogThrough(uint64_t index);
  int Majority() const { return static_cast<int>(config_.size()) / 2 + 1; }
  bool IsVoter(sim::NodeId node) const;
  void SendAppendEntries(sim::NodeId peer);
  void BroadcastAppendEntries();
  void AdvanceCommitIndex();
  void ApplyCommitted();
  void MaybeTakeSnapshot();
  int64_t LastLogTerm() const;
  /// Global end of the log (== number of entries ever appended).
  uint64_t LogEnd() const { return log_start_ + log_.size(); }
  /// Term of the 1-based global entry index (0 -> 0; the snapshot
  /// boundary -> the snapshot's term).
  int64_t TermOfEntry(uint64_t index) const;
  /// Entry at a 1-based global index (must be > log_start_).
  const LogEntry& EntryAt(uint64_t index) const {
    return log_[index - 1 - log_start_];
  }
  std::vector<sim::NodeId> Peers() const;

  RaftOptions options_;

  // Persistent state (survives crash/restart).
  int64_t current_term_ = 0;
  sim::NodeId voted_for_ = sim::kInvalidNode;
  std::vector<LogEntry> log_;  ///< Suffix after log_start_ global entries.
  uint64_t log_start_ = 0;     ///< Global entries folded into the snapshot.
  int64_t snapshot_term_ = 0;  ///< Term of the last compacted entry.
  std::vector<sim::NodeId> config_;           ///< Effective configuration.
  std::vector<sim::NodeId> snapshot_config_;  ///< Config at log_start_.
  /// Global indices of the config entries in log_, ascending.
  std::deque<uint64_t> config_indices_;
  bool heard_from_leader_ = false;  ///< For join_passive servers.

  // Volatile state.
  Role role_ = Role::kFollower;
  sim::NodeId leader_hint_ = sim::kInvalidNode;
  uint64_t commit_index_ = 0;  ///< Count of committed entries.
  uint64_t last_applied_ = 0;
  std::set<sim::NodeId> votes_;

  // Leader volatile state.
  std::map<sim::NodeId, uint64_t> next_index_;
  std::map<sim::NodeId, uint64_t> match_index_;
  /// (client, client_seq) -> client node awaiting a reply.
  std::map<std::pair<int32_t, uint64_t>, sim::NodeId> awaiting_client_;
  /// Client commands accepted into the batch queue or the unapplied log
  /// suffix; a retried request already here just re-registers its reply
  /// address instead of appending again. Erased on apply, so the set is
  /// bounded by the in-flight pipeline.
  std::set<std::pair<int32_t, uint64_t>> proposed_;
  /// Client commands waiting for the next batch cut.
  std::deque<smr::Command> batch_queue_;

  /// One registered read-index read awaiting leadership confirmation.
  struct PendingRead {
    uint64_t read_index = 0;  ///< commit_index at registration.
    uint64_t round = 0;       ///< AppendEntries round whose acks count.
    sim::NodeId client_node = sim::kInvalidNode;
    uint64_t client_seq = 0;
    std::string key;
    std::set<sim::NodeId> acks;
    bool confirmed = false;
  };
  /// A read received before the term-start barrier committed.
  struct WaitingRead {
    sim::NodeId client_node = sim::kInvalidNode;
    uint64_t client_seq = 0;
    std::string key;
  };
  std::vector<PendingRead> pending_reads_;
  std::vector<WaitingRead> waiting_reads_;
  /// Monotone AppendEntries round counter; bumped per broadcast and
  /// echoed in replies so a read can demand post-registration acks.
  uint64_t ae_round_ = 0;

  smr::KvStore kv_;
  smr::DedupingExecutor dedup_;
  std::vector<smr::Command> executed_commands_;

  uint64_t election_timer_ = 0;
  uint64_t heartbeat_timer_ = 0;
  uint64_t batch_timer_ = 0;
  int elections_started_ = 0;
  int batches_cut_ = 0;
  int snapshots_taken_ = 0;
  int snapshots_installed_ = 0;
  int reads_served_ = 0;
  std::vector<std::string> violations_;
};

/// Closed-loop Raft client, mirroring MultiPaxosClient.
class RaftClient : public sim::Process {
 public:
  RaftClient(int n, int ops, std::string key = "x",
             sim::Duration retry = 300 * sim::kMillisecond);

  int completed() const { return completed_; }
  bool done() const { return completed_ >= ops_; }
  const std::vector<std::string>& results() const { return results_; }

  void OnStart() override;
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 private:
  void SendCurrent();

  int n_;
  int ops_;
  std::string key_;
  sim::Duration retry_;
  int completed_ = 0;
  uint64_t seq_ = 0;
  sim::NodeId target_ = 0;
  uint64_t retry_timer_ = 0;
  std::vector<std::string> results_;
};

}  // namespace consensus40::raft

#endif  // CONSENSUS40_RAFT_RAFT_H_
