// Raft membership reconfiguration — the deck's "Group Membership" entry in
// the equivalent-problems slide: configuration changes flow through the
// same replicated log as ordinary commands (single-server-change rule,
// effective when appended).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "raft/raft.h"
#include "sim/simulation.h"

namespace consensus40::raft {
namespace {

using sim::kMillisecond;
using sim::kSecond;

struct World {
  explicit World(uint64_t seed = 1) : sim_owner(
            sim::Simulation::Builder(seed).AutoStart(false).Build()),
        sim(*sim_owner) {}

  RaftReplica* SpawnReplica(const std::vector<sim::NodeId>& config,
                            bool passive) {
    RaftOptions opts;
    opts.n = static_cast<int>(config.size());
    opts.initial_config = config;
    opts.join_passive = passive;
    replicas.push_back(sim.Spawn<RaftReplica>(opts));
    return replicas.back();
  }

  RaftReplica* Leader() {
    for (RaftReplica* r : replicas) {
      if (r->IsLeader() && !sim.IsCrashed(r->id())) return r;
    }
    return nullptr;
  }

  bool WaitForLeader() {
    return sim.RunUntil([&] { return Leader() != nullptr; }, 30 * kSecond);
  }

  std::unique_ptr<sim::Simulation> sim_owner;
  sim::Simulation& sim;
  std::vector<RaftReplica*> replicas;
};

// Sends client PUTs straight to a chosen replica and ignores the replies.
class Submitter : public sim::Process {
 public:
  void Put(sim::NodeId to, int count) {
    for (int i = 0; i < count; ++i) {
      ++seq_;
      Send(to, std::make_shared<RaftReplica::RequestMsg>(smr::Command{
                   100, seq_, "PUT k" + std::to_string(seq_) + " v"}));
    }
  }
  void OnMessage(sim::NodeId, const sim::Message&) override {}

 private:
  uint64_t seq_ = 0;
};

// config() by a full rescan: the configuration in force at the compaction
// frontier, overridden by each config entry still in the log.
std::vector<sim::NodeId> RescanConfig(const RaftReplica& r,
                                      std::vector<sim::NodeId> at_log_start) {
  for (const RaftReplica::LogEntry& entry : r.raft_log()) {
    if (auto config = RaftReplica::ParseConfig(entry.cmd)) {
      at_log_start = *config;
    }
  }
  return at_log_start;
}

bool HoldsConfigEntry(const RaftReplica& r) {
  return std::any_of(r.raft_log().begin(), r.raft_log().end(),
                     [](const RaftReplica::LogEntry& entry) {
                       return RaftReplica::ParseConfig(entry.cmd).has_value();
                     });
}

uint64_t LogEnd(const RaftReplica& r) {
  return r.log_start() + r.LogEntriesHeld();
}

std::vector<sim::NodeId> Without(std::vector<sim::NodeId> ids,
                                 sim::NodeId gone) {
  ids.erase(std::remove(ids.begin(), ids.end(), gone), ids.end());
  return ids;
}

// One follower's config() after each kind of log change, against a full
// rescan: a config entry appended, the same entry truncated by a
// conflicting suffix from a later leader, and a snapshot installed over a
// committed config entry.
TEST(RaftMembershipTest, FollowerConfigTracksAppendTruncateAndSnapshot) {
  World w(11);
  const std::vector<sim::NodeId> initial = {0, 1, 2, 3, 4};
  for (int i = 0; i < 5; ++i) {
    RaftOptions opts;
    opts.n = 5;
    opts.snapshot_threshold = 8;
    w.replicas.push_back(w.sim.Spawn<RaftReplica>(opts));
  }
  auto* submitter = w.sim.Spawn<Submitter>();
  w.sim.Start();
  ASSERT_TRUE(w.WaitForLeader());
  RaftReplica* old_leader = w.Leader();
  submitter->Put(old_leader->id(), 3);
  ASSERT_TRUE(w.sim.RunUntil(
      [&] {
        for (RaftReplica* r : w.replicas) {
          if (r->commit_index() < 3 || r->commit_index() != LogEnd(*r)) {
            return false;
          }
        }
        return true;
      },
      w.sim.now() + 10 * kSecond));

  RaftReplica* follower = w.replicas[old_leader->id() == 0 ? 1 : 0];
  std::vector<sim::NodeId> rest =
      Without(Without(initial, old_leader->id()), follower->id());
  std::vector<sim::NodeId> rest_and_submitter = rest;
  rest_and_submitter.push_back(submitter->id());
  auto majority_leader = [&]() -> RaftReplica* {
    for (sim::NodeId id : Without(initial, old_leader->id())) {
      if (w.replicas[id]->IsLeader()) return w.replicas[id];
    }
    return nullptr;
  };

  // 1. Append: the old leader, cut off with the follower alone, appends a
  // config entry that can never commit.
  w.sim.Partition({{old_leader->id(), follower->id()}, rest_and_submitter});
  const std::vector<sim::NodeId> shrunk = Without(initial, rest[0]);
  ASSERT_TRUE(old_leader->ChangeConfig(shrunk).ok());
  ASSERT_TRUE(w.sim.RunUntil([&] { return HoldsConfigEntry(*follower); },
                             w.sim.now() + 5 * kSecond));
  const uint64_t conflict_index = LogEnd(*follower);
  EXPECT_EQ(follower->config(), shrunk);
  EXPECT_EQ(follower->config(), RescanConfig(*follower, initial));

  // 2. Truncate: the other three elect a leader of a later term, which
  // commits its own entry at that index and overwrites the follower's.
  ASSERT_TRUE(w.sim.RunUntil([&] { return majority_leader() != nullptr; },
                             w.sim.now() + 10 * kSecond));
  submitter->Put(majority_leader()->id(), 1);
  ASSERT_TRUE(w.sim.RunUntil(
      [&] {
        RaftReplica* leader = majority_leader();
        return leader != nullptr && leader->commit_index() >= conflict_index;
      },
      w.sim.now() + 10 * kSecond));
  std::vector<sim::NodeId> all_but_old_leader = rest_and_submitter;
  all_but_old_leader.push_back(follower->id());
  w.sim.Partition({{old_leader->id()}, all_but_old_leader});
  ASSERT_TRUE(w.sim.RunUntil([&] { return !HoldsConfigEntry(*follower); },
                             w.sim.now() + 10 * kSecond));
  EXPECT_GE(LogEnd(*follower), conflict_index);
  EXPECT_EQ(follower->config(), initial);
  EXPECT_EQ(follower->config(), RescanConfig(*follower, initial));

  // 3. Install: the majority commits a config change the follower holds,
  // then goes on without the follower until its log is compacted past the
  // follower's end, so catching up takes a snapshot.
  const std::vector<sim::NodeId> healed = Without(initial, old_leader->id());
  ASSERT_TRUE(w.sim.RunUntil([&] { return majority_leader() != nullptr; },
                             w.sim.now() + 10 * kSecond));
  RaftReplica* leader = majority_leader();
  ASSERT_TRUE(leader->ChangeConfig(healed).ok());
  const uint64_t config_index = LogEnd(*leader);
  ASSERT_TRUE(w.sim.RunUntil(
      [&] {
        return leader->commit_index() >= config_index &&
               follower->commit_index() >= config_index;
      },
      w.sim.now() + 10 * kSecond));
  EXPECT_EQ(follower->config(), healed);
  EXPECT_EQ(follower->config(),
            RescanConfig(*follower, follower->log_start() >= config_index
                                        ? healed
                                        : initial));
  // The snapshot will cover a config entry the follower still holds.
  ASSERT_TRUE(HoldsConfigEntry(*follower));
  w.sim.Partition({{old_leader->id()}, {follower->id()}, rest_and_submitter});
  submitter->Put(leader->id(), 20);
  ASSERT_TRUE(w.sim.RunUntil(
      [&] { return leader->log_start() > LogEnd(*follower); },
      w.sim.now() + 10 * kSecond));
  w.sim.Partition({{old_leader->id()}, all_but_old_leader});
  ASSERT_TRUE(w.sim.RunUntil([&] { return follower->snapshots_installed() > 0; },
                             w.sim.now() + 30 * kSecond));
  EXPECT_GE(follower->log_start(), config_index);
  EXPECT_EQ(follower->config(), healed);
  EXPECT_EQ(follower->config(), RescanConfig(*follower, healed));
}

TEST(RaftMembershipTest, ConfigCommandRoundTrips) {
  smr::Command cmd = RaftReplica::MakeConfigCommand({0, 2, 5});
  auto parsed = RaftReplica::ParseConfig(cmd);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, (std::vector<sim::NodeId>{0, 2, 5}));
  // Ordinary commands don't parse as configs.
  EXPECT_FALSE(RaftReplica::ParseConfig(smr::Command{1, 1, "PUT x 1"}));
}

TEST(RaftMembershipTest, GrowThreeToFive) {
  World w;
  std::vector<sim::NodeId> initial = {0, 1, 2};
  for (int i = 0; i < 3; ++i) w.SpawnReplica(initial, false);
  // The two future members exist from the start but stay passive.
  std::vector<sim::NodeId> full = {0, 1, 2, 3, 4};
  w.SpawnReplica(initial, true);  // id 3: passive until contacted.
  w.SpawnReplica(initial, true);  // id 4.
  auto* client = w.sim.Spawn<RaftClient>(3, 20);
  w.sim.Start();

  ASSERT_TRUE(w.sim.RunUntil([&] { return client->completed() >= 5; },
                             60 * kSecond));
  // Add servers one at a time (the single-server-change rule).
  ASSERT_TRUE(w.WaitForLeader());
  ASSERT_TRUE(w.Leader()->ChangeConfig({0, 1, 2, 3}).ok());
  ASSERT_TRUE(w.sim.RunUntil(
      [&] {
        RaftReplica* leader = w.Leader();
        return leader != nullptr && leader->config().size() == 4 &&
               leader->commit_index() > 0 &&
               leader->ChangeConfig({0, 1, 2, 3, 4}).ok();
      },
      60 * kSecond));

  ASSERT_TRUE(w.sim.RunUntil([&] { return client->done(); }, 120 * kSecond));
  w.sim.RunFor(2 * kSecond);
  // All five replicas converged on the config and the data.
  for (RaftReplica* r : w.replicas) {
    EXPECT_EQ(r->config().size(), 5u) << r->id();
    EXPECT_EQ(*r->kv().Get("x"), "20") << r->id();
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1));
  }
}

TEST(RaftMembershipTest, GrownClusterUsesNewMajority) {
  // After growing 3 -> 5, two crashes must still be tolerated (the old
  // 3-node cluster would have stalled).
  World w(3);
  std::vector<sim::NodeId> initial = {0, 1, 2};
  for (int i = 0; i < 3; ++i) w.SpawnReplica(initial, false);
  w.SpawnReplica(initial, true);
  w.SpawnReplica(initial, true);
  auto* client = w.sim.Spawn<RaftClient>(5, 25);
  w.sim.Start();
  ASSERT_TRUE(w.sim.RunUntil([&] { return client->completed() >= 3; },
                             60 * kSecond));
  ASSERT_TRUE(w.WaitForLeader());
  ASSERT_TRUE(w.Leader()->ChangeConfig({0, 1, 2, 3}).ok());
  ASSERT_TRUE(w.sim.RunUntil(
      [&] {
        RaftReplica* leader = w.Leader();
        return leader != nullptr &&
               leader->ChangeConfig({0, 1, 2, 3, 4}).ok();
      },
      60 * kSecond));
  ASSERT_TRUE(w.sim.RunUntil([&] { return client->completed() >= 10; },
                             120 * kSecond));
  // Kill two of the ORIGINAL members.
  sim::NodeId leader_id = w.Leader()->id();
  int killed = 0;
  for (sim::NodeId victim : {0, 1, 2}) {
    if (victim != leader_id && killed < 2) {
      w.sim.Crash(victim);
      ++killed;
    }
  }
  if (killed < 2) w.sim.Crash(leader_id);
  ASSERT_TRUE(w.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
}

TEST(RaftMembershipTest, RemoveServerShrinksQuorum) {
  World w(5);
  std::vector<sim::NodeId> initial = {0, 1, 2, 3, 4};
  for (int i = 0; i < 5; ++i) w.SpawnReplica(initial, false);
  auto* client = w.sim.Spawn<RaftClient>(5, 20);
  w.sim.Start();
  ASSERT_TRUE(w.sim.RunUntil([&] { return client->completed() >= 3; },
                             60 * kSecond));
  // Remove two followers, one at a time.
  ASSERT_TRUE(w.WaitForLeader());
  sim::NodeId leader_id = w.Leader()->id();
  std::vector<sim::NodeId> still = initial;
  std::vector<sim::NodeId> removed;
  for (sim::NodeId candidate : initial) {
    if (candidate != leader_id && removed.size() < 2) {
      removed.push_back(candidate);
    }
  }
  std::vector<sim::NodeId> after_first;
  for (sim::NodeId m : initial) {
    if (m != removed[0]) after_first.push_back(m);
  }
  std::vector<sim::NodeId> after_second;
  for (sim::NodeId m : after_first) {
    if (m != removed[1]) after_second.push_back(m);
  }
  ASSERT_TRUE(w.Leader()->ChangeConfig(after_first).ok());
  ASSERT_TRUE(w.sim.RunUntil(
      [&] {
        RaftReplica* leader = w.Leader();
        return leader != nullptr && leader->ChangeConfig(after_second).ok();
      },
      60 * kSecond));
  // The removed servers can even be shut off entirely.
  w.sim.Crash(removed[0]);
  w.sim.Crash(removed[1]);
  ASSERT_TRUE(w.sim.RunUntil([&] { return client->done(); }, 240 * kSecond));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(client->results()[i], std::to_string(i + 1)) << i;
  }
  // The survivors agree on the 3-member config.
  for (sim::NodeId m : after_second) {
    EXPECT_EQ(w.replicas[m]->config().size(), 3u) << m;
  }
}

TEST(RaftMembershipTest, OnlyOneChangeInFlight) {
  World w(7);
  std::vector<sim::NodeId> initial = {0, 1, 2};
  for (int i = 0; i < 3; ++i) w.SpawnReplica(initial, false);
  w.SpawnReplica(initial, true);
  w.sim.Start();
  ASSERT_TRUE(w.WaitForLeader());
  RaftReplica* leader = w.Leader();
  ASSERT_TRUE(leader->ChangeConfig({0, 1, 2, 3}).ok());
  // Immediately trying another change must fail until the first commits.
  EXPECT_TRUE(leader->ChangeConfig({0, 1, 2}).IsFailedPrecondition());
  // Non-leaders cannot reconfigure.
  for (RaftReplica* r : w.replicas) {
    if (r != leader) {
      EXPECT_TRUE(r->ChangeConfig({0, 1}).IsFailedPrecondition());
    }
  }
  EXPECT_TRUE(leader->ChangeConfig({}).IsInvalidArgument());
}

}  // namespace
}  // namespace consensus40::raft
