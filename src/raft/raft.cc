#include "raft/raft.h"

#include <algorithm>
#include <cassert>

namespace consensus40::raft {

namespace {
const char kRedirect[] = "\x01REDIRECT";
}  // namespace

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

struct RaftReplica::RequestVoteMsg : sim::Message {
  const char* TypeName() const override { return "request-vote"; }
  int ByteSize() const override { return 32; }
  int64_t term = 0;
  sim::NodeId candidate = sim::kInvalidNode;
  uint64_t last_log_index = 0;  ///< Number of entries (0 = empty log).
  int64_t last_log_term = 0;
};

struct RaftReplica::VoteReplyMsg : sim::Message {
  const char* TypeName() const override { return "vote-reply"; }
  int ByteSize() const override { return 24; }
  int64_t term = 0;
  bool granted = false;
};

struct RaftReplica::AppendEntriesMsg : sim::Message {
  const char* TypeName() const override { return "append-entries"; }
  int ByteSize() const override {
    int size = 48;
    for (const LogEntry& e : entries) size += 8 + e.cmd.ByteSize();
    return size;
  }
  int64_t term = 0;
  sim::NodeId leader = sim::kInvalidNode;
  uint64_t prev_log_index = 0;  ///< Entries before this index must match.
  int64_t prev_log_term = 0;
  std::vector<LogEntry> entries;
  uint64_t leader_commit = 0;
  uint64_t round = 0;  ///< Leader broadcast round, echoed in the reply.
};

struct RaftReplica::AppendReplyMsg : sim::Message {
  const char* TypeName() const override { return "append-reply"; }
  int ByteSize() const override { return 40; }
  int64_t term = 0;
  bool success = false;
  uint64_t match_index = 0;  ///< On success: entries now known replicated.
  uint64_t round = 0;  ///< Echo of the AppendEntries round (0: snapshot
                       ///< replies — they never confirm a read).
};

struct RaftReplica::InstallSnapshotMsg : sim::Message {
  const char* TypeName() const override { return "install-snapshot"; }
  int ByteSize() const override {
    // True framed size: actual key/value bytes plus cached session
    // results, not a per-entry constant (values can be megabytes).
    int size = 64 + static_cast<int>(config.size()) * 8;
    for (const auto& [k, v] : data) {
      size += 16 + static_cast<int>(k.size()) + static_cast<int>(v.size());
    }
    for (const auto& [client, s] : sessions) {
      size += 24;
      for (const auto& [seq, result] : s.above) {
        size += 16 + static_cast<int>(result.size());
      }
    }
    return size;
  }
  int64_t term = 0;
  sim::NodeId leader = sim::kInvalidNode;
  uint64_t last_index = 0;  ///< Global index the snapshot covers through.
  int64_t last_term = 0;
  std::map<std::string, std::string> data;  ///< KV state.
  smr::DedupingExecutor::Sessions sessions;
  std::vector<sim::NodeId> config;  ///< Configuration at last_index.
};

// ---------------------------------------------------------------------------
// Replica
// ---------------------------------------------------------------------------

RaftReplica::RaftReplica(RaftOptions options) : options_(options) {
  if (options_.initial_config.empty()) {
    assert(options_.n > 0);
    for (int i = 0; i < options_.n; ++i) {
      options_.initial_config.push_back(i);
    }
  }
  config_ = options_.initial_config;
  snapshot_config_ = options_.initial_config;
}

std::vector<sim::NodeId> RaftReplica::Peers() const {
  std::vector<sim::NodeId> peers;
  for (sim::NodeId member : config_) {
    if (member != id()) peers.push_back(member);
  }
  return peers;
}

bool RaftReplica::IsVoter(sim::NodeId node) const {
  for (sim::NodeId member : config_) {
    if (member == node) return true;
  }
  return false;
}

smr::Command RaftReplica::MakeConfigCommand(
    const std::vector<sim::NodeId>& config) {
  std::string op = "CONFIG";
  for (sim::NodeId member : config) op += " " + std::to_string(member);
  return smr::Command{-2, 0, op};
}

std::optional<std::vector<sim::NodeId>> RaftReplica::ParseConfig(
    const smr::Command& cmd) {
  if (cmd.client != -2 || cmd.op.rfind("CONFIG", 0) != 0) return std::nullopt;
  std::vector<sim::NodeId> config;
  size_t pos = 6;
  while (pos < cmd.op.size()) {
    config.push_back(
        static_cast<sim::NodeId>(std::strtol(cmd.op.c_str() + pos, nullptr, 10)));
    pos = cmd.op.find(' ', pos + 1);
    if (pos == std::string::npos) break;
    ++pos;
  }
  return config;
}

void RaftReplica::RecomputeConfig() {
  config_ = config_indices_.empty()
                ? snapshot_config_
                : *ParseConfig(EntryAt(config_indices_.back()).cmd);
}

void RaftReplica::AppendToLog(LogEntry entry) {
  if (ParseConfig(entry.cmd)) config_indices_.push_back(LogEnd() + 1);
  log_.push_back(std::move(entry));
}

void RaftReplica::TruncateLogAfter(uint64_t index) {
  log_.resize(index - log_start_);
  while (!config_indices_.empty() && config_indices_.back() > index) {
    config_indices_.pop_back();
  }
}

std::optional<std::vector<sim::NodeId>> RaftReplica::CompactLogThrough(
    uint64_t index) {
  uint64_t last_config = 0;
  while (!config_indices_.empty() && config_indices_.front() <= index) {
    last_config = config_indices_.front();
    config_indices_.pop_front();
  }
  std::optional<std::vector<sim::NodeId>> config;
  if (last_config > 0) config = ParseConfig(EntryAt(last_config).cmd);
  if (index >= LogEnd()) {
    log_.clear();
  } else {
    log_.erase(log_.begin(),
               log_.begin() + static_cast<long>(index - log_start_));
  }
  log_start_ = index;
  return config;
}

Status RaftReplica::ChangeConfig(std::vector<sim::NodeId> new_config) {
  if (role_ != Role::kLeader) {
    return Status::FailedPrecondition("not the leader");
  }
  if (new_config.empty()) {
    return Status::InvalidArgument("empty configuration");
  }
  // One change at a time: any uncommitted config entry blocks the next.
  if (!config_indices_.empty() && config_indices_.back() > commit_index_) {
    return Status::FailedPrecondition("a config change is in flight");
  }
  AppendToLog(LogEntry{current_term_, MakeConfigCommand(new_config)});
  config_ = std::move(new_config);  // Effective when appended.
  BroadcastAppendEntries();
  return Status::Ok();
}

int64_t RaftReplica::LastLogTerm() const {
  return log_.empty() ? snapshot_term_ : log_.back().term;
}

int64_t RaftReplica::TermOfEntry(uint64_t index) const {
  if (index == 0) return 0;
  if (index == log_start_) return snapshot_term_;
  return EntryAt(index).term;
}

void RaftReplica::OnStart() { ResetElectionTimer(); }

void RaftReplica::OnRestart() {
  // current_term_, voted_for_, log_, snapshot state are persistent.
  role_ = Role::kFollower;
  leader_hint_ = sim::kInvalidNode;
  votes_.clear();
  next_index_.clear();
  match_index_.clear();
  awaiting_client_.clear();
  proposed_.clear();
  batch_queue_.clear();  // Volatile: clients re-transmit unlogged commands.
  batch_timer_ = 0;
  pending_reads_.clear();  // Volatile: clients re-issue reads.
  waiting_reads_.clear();
  ae_round_ = 0;  // Safe: regaining leadership requires a higher term.
  ResetElectionTimer();
}

void RaftReplica::ResetElectionTimer() {
  CancelTimer(election_timer_);
  sim::Duration t = options_.election_timeout +
                    static_cast<sim::Duration>(
                        rng().NextBounded(options_.election_timeout));
  election_timer_ = SetTimer(t, [this] { StartElection(); });
}

void RaftReplica::BecomeFollower(int64_t term) {
  if (term > current_term_) {
    current_term_ = term;
    voted_for_ = sim::kInvalidNode;
  }
  if (role_ == Role::kLeader) {
    CancelTimer(heartbeat_timer_);
    CancelTimer(batch_timer_);
    batch_queue_.clear();  // Unlogged commands: clients retry elsewhere.
    proposed_.clear();
    FailPendingReads();  // Leadership lost: reads must go to the new leader.
  }
  role_ = Role::kFollower;
  votes_.clear();
  ResetElectionTimer();
}

void RaftReplica::StartElection() {
  if (role_ == Role::kLeader) return;
  if (!IsVoter(id()) || (options_.join_passive && !heard_from_leader_)) {
    // Not (yet) a voting member: stay quiet rather than disrupt the
    // incumbents with doomed candidacies.
    ResetElectionTimer();
    return;
  }
  role_ = Role::kCandidate;
  ++current_term_;
  ++elections_started_;
  voted_for_ = id();
  votes_ = {id()};
  leader_hint_ = sim::kInvalidNode;
  auto rv = std::make_shared<RequestVoteMsg>();
  rv->term = current_term_;
  rv->candidate = id();
  rv->last_log_index = LogEnd();
  rv->last_log_term = LastLogTerm();
  Multicast(Peers(), rv);
  ResetElectionTimer();  // Retry with a new term if this election splits.
  if (static_cast<int>(votes_.size()) >= Majority()) BecomeLeader();
}

void RaftReplica::BecomeLeader() {
  role_ = Role::kLeader;
  leader_hint_ = id();
  CancelTimer(election_timer_);
  for (sim::NodeId peer : Peers()) {
    next_index_[peer] = LogEnd();
    match_index_[peer] = 0;
  }
  RebuildProposed();
  // AdvanceCommitIndex may only count replicas for entries of the
  // current term, so a leader whose log ends in an uncommitted
  // prior-term tail can never commit it without new traffic — and a
  // retried client command already present in that tail appends
  // nothing. Commit a no-op in our own term to pull the tail through
  // (Raft paper §8). Every uncommitted entry here is prior-term: the
  // candidate bumped its term before winning.
  if (LogEnd() > commit_index_) {
    AppendToLog(
        LogEntry{current_term_, smr::Command{smr::kNoopClient, 0, "NOOP"}});
  }
  BroadcastAppendEntries();  // Immediate heartbeat asserts leadership.
}

void RaftReplica::RebuildProposed() {
  proposed_.clear();
  for (uint64_t i = last_applied_; i < LogEnd(); ++i) {
    for (const smr::Command& cmd : smr::FlattenCommand(EntryAt(i + 1).cmd)) {
      if (cmd.client >= 0) proposed_.insert({cmd.client, cmd.client_seq});
    }
  }
}

void RaftReplica::FlushBatch() {
  CancelTimer(batch_timer_);
  batch_timer_ = 0;
  if (role_ != Role::kLeader || batch_queue_.empty()) return;
  size_t max_take = static_cast<size_t>(std::max(1, options_.batch_size));
  while (!batch_queue_.empty()) {
    size_t take = std::min(batch_queue_.size(), max_take);
    if (take == 1) {
      // A lone command ships raw, keeping the untuned log shape.
      AppendToLog(LogEntry{current_term_, batch_queue_.front()});
    } else {
      std::vector<smr::Command> cmds(batch_queue_.begin(),
                                     batch_queue_.begin() +
                                         static_cast<long>(take));
      AppendToLog(LogEntry{current_term_, smr::EncodeBatch(cmds)});
      ++batches_cut_;
    }
    batch_queue_.erase(batch_queue_.begin(),
                       batch_queue_.begin() + static_cast<long>(take));
  }
  BroadcastAppendEntries();
}

void RaftReplica::SendAppendEntries(sim::NodeId peer) {
  uint64_t next = next_index_[peer];
  if (next < log_start_) {
    // The follower needs entries we have compacted away: ship the
    // snapshot instead (Raft's InstallSnapshot RPC).
    auto snap = std::make_shared<InstallSnapshotMsg>();
    snap->term = current_term_;
    snap->leader = id();
    snap->last_index = log_start_;
    snap->last_term = snapshot_term_;
    snap->data = kv_.Snapshot();
    snap->sessions = dedup_.sessions();
    snap->config = snapshot_config_;
    Send(peer, snap);
    return;
  }
  auto ae = std::make_shared<AppendEntriesMsg>();
  ae->term = current_term_;
  ae->leader = id();
  ae->prev_log_index = next;
  ae->prev_log_term = TermOfEntry(next);
  for (uint64_t i = next; i < LogEnd(); ++i) {
    ae->entries.push_back(EntryAt(i + 1));
  }
  ae->leader_commit = commit_index_;
  ae->round = ae_round_;
  Send(peer, ae);
}

void RaftReplica::BroadcastAppendEntries() {
  if (role_ != Role::kLeader) return;
  ++ae_round_;  // Replies echoing this round confirm leadership *now*.
  for (sim::NodeId peer : Peers()) SendAppendEntries(peer);
  CancelTimer(heartbeat_timer_);
  heartbeat_timer_ = SetTimer(options_.heartbeat_interval,
                              [this] { BroadcastAppendEntries(); });
}

void RaftReplica::AdvanceCommitIndex() {
  // Find the highest N > commit_index_ replicated on a majority with
  // TermOfEntry(N) == current_term_ (the Raft commit rule).
  for (uint64_t n = LogEnd(); n > commit_index_ && n > log_start_; --n) {
    if (TermOfEntry(n) != current_term_) break;
    // Count only the votes of the CURRENT configuration.
    int count = IsVoter(id()) ? 1 : 0;
    for (sim::NodeId member : config_) {
      if (member == id()) continue;
      auto it = match_index_.find(member);
      count += (it != match_index_.end() && it->second >= n);
    }
    if (count >= Majority()) {
      commit_index_ = n;
      break;
    }
  }
  ApplyCommitted();
  MaybeServeReads();
  // Committing the term-start entry opens the read barrier: reads that
  // arrived too early can now be registered.
  if (role_ == Role::kLeader && ReadBarrierPassed() && !waiting_reads_.empty()) {
    std::vector<WaitingRead> waiting;
    waiting.swap(waiting_reads_);
    for (const WaitingRead& w : waiting) {
      RegisterRead(w.client_node, w.client_seq, w.key);
    }
  }
}

void RaftReplica::ApplyCommitted() {
  while (last_applied_ < commit_index_) {
    const LogEntry& entry = EntryAt(last_applied_ + 1);
    ++last_applied_;
    if (smr::IsNoop(entry.cmd)) continue;  // Leader term-start no-op.
    auto config = ParseConfig(entry.cmd);
    if (config) {
      // A committed configuration that no longer contains us (leader
      // removed itself) means we must step down.
      if (role_ == Role::kLeader && !IsVoter(id())) {
        BecomeFollower(current_term_);
      }
      continue;  // Config entries do not touch the state machine.
    }
    // Batch entries fan out: each client command is deduped, recorded,
    // and answered individually. A batch that fails to decode must
    // surface, not silently apply zero commands for the entry.
    std::vector<smr::Command> subs;
    if (smr::IsBatch(entry.cmd)) {
      std::optional<std::vector<smr::Command>> decoded =
          smr::DecodeBatch(entry.cmd);
      if (!decoded.has_value()) {
        violations_.push_back("malformed batch entry at index " +
                              std::to_string(last_applied_) +
                              " dropped on apply");
        continue;
      }
      subs = std::move(*decoded);
    } else {
      subs = {entry.cmd};
    }
    for (const smr::Command& cmd : subs) {
      std::string result = dedup_.Apply(&kv_, cmd);
      executed_commands_.push_back(cmd);
      auto cmd_key = std::make_pair(cmd.client, cmd.client_seq);
      proposed_.erase(cmd_key);
      auto it = awaiting_client_.find(cmd_key);
      if (it != awaiting_client_.end()) {
        Send(it->second,
             std::make_shared<ReplyMsg>(cmd.client_seq, result, id()));
        awaiting_client_.erase(it);
      }
    }
  }
  MaybeTakeSnapshot();
}

void RaftReplica::MaybeTakeSnapshot() {
  if (options_.snapshot_threshold == 0) return;
  if (last_applied_ - log_start_ < options_.snapshot_threshold) return;
  // The applied state machine IS the snapshot: record the boundary term
  // and the configuration in effect at the boundary, drop the prefix.
  snapshot_term_ = TermOfEntry(last_applied_);
  auto config = CompactLogThrough(last_applied_);
  if (config) snapshot_config_ = std::move(*config);
  ++snapshots_taken_;
}

// ---------------------------------------------------------------------------
// Read-index reads (Raft dissertation §6.4)
// ---------------------------------------------------------------------------

bool RaftReplica::ReadBarrierPassed() const {
  // A fresh leader's commit_index may trail the cluster frontier until it
  // commits an entry of its own term. BecomeLeader appends a no-op
  // whenever an uncommitted tail exists, so either the whole log was
  // committed at election (first disjunct) or the barrier entry commits
  // and satisfies the second.
  return commit_index_ == LogEnd() ||
         TermOfEntry(commit_index_) == current_term_;
}

void RaftReplica::HandleRead(sim::NodeId from, int32_t /*client*/,
                             uint64_t seq, const std::string& key) {
  if (!ReadBarrierPassed()) {
    waiting_reads_.push_back(WaitingRead{from, seq, key});
    return;
  }
  RegisterRead(from, seq, key);
}

void RaftReplica::RegisterRead(sim::NodeId from, uint64_t seq,
                               const std::string& key) {
  PendingRead read;
  read.read_index = commit_index_;
  // Only acks to AppendEntries sent AFTER this point prove we are still
  // the leader; a stale in-flight ack must not count.
  read.round = ae_round_ + 1;
  read.client_node = from;
  read.client_seq = seq;
  read.key = key;
  read.confirmed = 1 >= Majority();  // Singleton group: self-ack suffices.
  pending_reads_.push_back(std::move(read));
  if (pending_reads_.back().confirmed) {
    MaybeServeReads();
  } else {
    BroadcastAppendEntries();  // Bumps ae_round_ to read.round and fans out.
  }
}

void RaftReplica::MaybeServeReads() {
  size_t i = 0;
  while (i < pending_reads_.size()) {
    const PendingRead& read = pending_reads_[i];
    if (!read.confirmed || read.read_index > last_applied_) {
      ++i;
      continue;
    }
    // Read-index reads bypass the log, so the shard layer's routing
    // fence must be consulted explicitly: a migrated-away key bounces
    // with "MOVED <epoch>" exactly as the logged GET would.
    std::string result;
    if (std::optional<uint64_t> moved = kv_.MovedEpoch(read.key)) {
      result = "MOVED " + std::to_string(*moved);
    } else {
      std::optional<std::string> value = kv_.Get(read.key);
      result = value.has_value() ? *value : "NIL";
    }
    Send(read.client_node,
         std::make_shared<ReplyMsg>(read.client_seq, result, id()));
    ++reads_served_;
    pending_reads_.erase(pending_reads_.begin() + static_cast<long>(i));
  }
}

void RaftReplica::FailPendingReads() {
  for (const PendingRead& read : pending_reads_) {
    Send(read.client_node,
         std::make_shared<ReplyMsg>(read.client_seq, kRedirect, leader_hint_));
  }
  for (const WaitingRead& read : waiting_reads_) {
    Send(read.client_node,
         std::make_shared<ReplyMsg>(read.client_seq, kRedirect, leader_hint_));
  }
  pending_reads_.clear();
  waiting_reads_.clear();
}

void RaftReplica::OnMessage(sim::NodeId from, const sim::Message& msg) {
  if (const auto* m = dynamic_cast<const RequestMsg*>(&msg)) {
    if (role_ != Role::kLeader) {
      Send(from, std::make_shared<ReplyMsg>(m->cmd.client_seq, kRedirect,
                                            leader_hint_));
      return;
    }
    if (m->cmd.kind == smr::Command::Kind::kRead) {
      // Read-index path: never logged, never touches the dedup sessions
      // (those are replicated state, and a non-logged read mutating them
      // would diverge the replicas). `op` is "GET <key>" by the
      // MakeRequest contract.
      HandleRead(from, m->cmd.client, m->cmd.client_seq, m->cmd.op.substr(4));
      return;
    }
    // Already executed (possibly compacted away): answer from cache.
    if (const std::string* cached =
            dedup_.Lookup(m->cmd.client, m->cmd.client_seq)) {
      Send(from, std::make_shared<ReplyMsg>(m->cmd.client_seq, *cached, id()));
      return;
    }
    auto key = std::make_pair(m->cmd.client, m->cmd.client_seq);
    awaiting_client_[key] = from;
    if (proposed_.count(key) > 0) return;  // In flight: reply lands on apply.
    proposed_.insert(key);
    batch_queue_.push_back(m->cmd);
    // PBFT-style cut-or-linger: cut immediately when batching is off or
    // the batch is full; otherwise arm the linger timer on first enqueue.
    if (options_.batch_delay == 0 ||
        batch_queue_.size() >= static_cast<size_t>(options_.batch_size)) {
      FlushBatch();
    } else if (batch_queue_.size() == 1) {
      batch_timer_ = SetTimer(options_.batch_delay, [this] { FlushBatch(); });
    }
    return;
  }

  if (const auto* m = dynamic_cast<const RequestVoteMsg*>(&msg)) {
    if (m->term > current_term_) BecomeFollower(m->term);
    bool granted = false;
    if (m->term == current_term_ &&
        (voted_for_ == sim::kInvalidNode || voted_for_ == m->candidate)) {
      // Election restriction: candidate's log must be at least as
      // up-to-date as ours.
      bool up_to_date =
          m->last_log_term > LastLogTerm() ||
          (m->last_log_term == LastLogTerm() &&
           m->last_log_index >= LogEnd());
      if (up_to_date) {
        granted = true;
        voted_for_ = m->candidate;
        ResetElectionTimer();
      }
    }
    auto reply = std::make_shared<VoteReplyMsg>();
    reply->term = current_term_;
    reply->granted = granted;
    Send(from, reply);
    return;
  }

  if (const auto* m = dynamic_cast<const VoteReplyMsg*>(&msg)) {
    if (m->term > current_term_) {
      BecomeFollower(m->term);
      return;
    }
    if (role_ != Role::kCandidate || m->term != current_term_ || !m->granted) {
      return;
    }
    votes_.insert(from);
    if (static_cast<int>(votes_.size()) >= Majority()) BecomeLeader();
    return;
  }

  if (const auto* m = dynamic_cast<const AppendEntriesMsg*>(&msg)) {
    auto reply = std::make_shared<AppendReplyMsg>();
    reply->round = m->round;
    if (m->term < current_term_) {
      reply->term = current_term_;
      reply->success = false;
      Send(from, reply);
      return;
    }
    BecomeFollower(m->term);
    leader_hint_ = m->leader;
    heard_from_leader_ = true;
    reply->term = current_term_;

    uint64_t prev = m->prev_log_index;
    size_t skip = 0;
    if (prev < log_start_) {
      // Our snapshot already covers (prev, log_start_]; those entries are
      // committed, hence identical — skip them.
      skip = std::min<size_t>(log_start_ - prev, m->entries.size());
      prev += skip;
    }
    if (prev > LogEnd() ||
        (prev > log_start_ && TermOfEntry(prev) != m->prev_log_term &&
         skip == 0)) {
      // Log mismatch: leader will back up nextIndex.
      reply->success = false;
      reply->match_index = 0;
      Send(from, reply);
      return;
    }
    // Append, truncating any conflicting suffix.
    uint64_t index = prev;  // Global index of the entry about to land.
    bool log_changed = false;
    for (size_t k = skip; k < m->entries.size(); ++k) {
      const LogEntry& entry = m->entries[k];
      if (index < LogEnd()) {
        if (TermOfEntry(index + 1) != entry.term) {
          if (index < commit_index_) {
            violations_.push_back("truncating committed entry " +
                                  std::to_string(index));
          }
          TruncateLogAfter(index);
          AppendToLog(entry);
          log_changed = true;
        }
      } else {
        AppendToLog(entry);
        log_changed = true;
      }
      ++index;
    }
    if (log_changed) RecomputeConfig();
    if (m->leader_commit > commit_index_) {
      commit_index_ = std::min<uint64_t>(m->leader_commit, LogEnd());
      ApplyCommitted();
    }
    reply->success = true;
    reply->match_index = m->prev_log_index + m->entries.size();
    Send(from, reply);
    return;
  }

  if (const auto* m = dynamic_cast<const InstallSnapshotMsg*>(&msg)) {
    auto reply = std::make_shared<AppendReplyMsg>();
    if (m->term < current_term_) {
      reply->term = current_term_;
      reply->success = false;
      Send(from, reply);
      return;
    }
    BecomeFollower(m->term);
    leader_hint_ = m->leader;
    heard_from_leader_ = true;
    reply->term = current_term_;
    if (m->last_index <= last_applied_) {
      // Our state is already at least as fresh.
      reply->success = true;
      reply->match_index = last_applied_;
      Send(from, reply);
      return;
    }
    kv_.Restore(m->data);
    dedup_.Restore(m->sessions);
    CompactLogThrough(m->last_index);
    snapshot_term_ = m->last_term;
    if (!m->config.empty()) snapshot_config_ = m->config;
    RecomputeConfig();
    commit_index_ = std::max(commit_index_, m->last_index);
    last_applied_ = m->last_index;
    ++snapshots_installed_;
    reply->success = true;
    reply->match_index = m->last_index;
    Send(from, reply);
    ApplyCommitted();
    return;
  }

  if (const auto* m = dynamic_cast<const AppendReplyMsg*>(&msg)) {
    if (m->term > current_term_) {
      BecomeFollower(m->term);
      return;
    }
    if (role_ != Role::kLeader || m->term != current_term_) return;
    if (m->success) {
      match_index_[from] = std::max(match_index_[from], m->match_index);
      next_index_[from] = std::max(next_index_[from], m->match_index);
      if (m->round > 0) {
        for (PendingRead& read : pending_reads_) {
          if (read.confirmed || m->round < read.round) continue;
          read.acks.insert(from);
          if (static_cast<int>(read.acks.size()) + 1 >= Majority()) {
            read.confirmed = true;
          }
        }
      }
      AdvanceCommitIndex();  // Also serves newly confirmed reads.
    } else {
      // Back up and retry immediately.
      if (next_index_[from] > 0) --next_index_[from];
      SendAppendEntries(from);
    }
    return;
  }
}

std::vector<smr::Command> RaftReplica::CommittedCommands() const {
  return executed_commands_;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

RaftClient::RaftClient(int n, int ops, std::string key, sim::Duration retry)
    : n_(n), ops_(ops), key_(std::move(key)), retry_(retry) {}

void RaftClient::OnStart() {
  seq_ = 1;
  SendCurrent();
}

void RaftClient::SendCurrent() {
  if (done()) return;
  smr::Command cmd{id(), seq_, "INC " + key_};
  cmd.acked = seq_ - 1;  // Closed loop: every earlier reply was consumed.
  Send(target_, std::make_shared<RaftReplica::RequestMsg>(cmd));
  CancelTimer(retry_timer_);
  retry_timer_ = SetTimer(retry_, [this] {
    target_ = (target_ + 1) % n_;
    SendCurrent();
  });
}

void RaftClient::OnMessage(sim::NodeId from, const sim::Message& msg) {
  const auto* m = dynamic_cast<const RaftReplica::ReplyMsg*>(&msg);
  if (m == nullptr || m->client_seq != seq_ || done()) return;
  if (m->result == kRedirect) {
    if (m->leader_hint >= 0 && m->leader_hint < n_ && m->leader_hint != from) {
      target_ = m->leader_hint;
      SendCurrent();
    }
    return;
  }
  target_ = from;
  results_.push_back(m->result);
  ++completed_;
  ++seq_;
  if (done()) {
    CancelTimer(retry_timer_);
  } else {
    SendCurrent();
  }
}

}  // namespace consensus40::raft
