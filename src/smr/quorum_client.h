/// \file
/// The client side the BFT protocols share (PBFT, MinBFT, XFT, CheapBFT,
/// HotStuff, SeeMoRe): signed requests, plain replies, and one
/// closed-loop client that accepts a result once a quorum of replicas
/// reports it. Zyzzyva's speculative client sends the same request.

#ifndef CONSENSUS40_SMR_QUORUM_CLIENT_H_
#define CONSENSUS40_SMR_QUORUM_CLIENT_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "crypto/signatures.h"
#include "sim/simulation.h"
#include "smr/command.h"

namespace consensus40::smr {

/// A client request to a BFT replica.
struct BftRequestMsg : sim::Message {
  BftRequestMsg(Command c, crypto::Signature s)
      : cmd(std::move(c)), client_sig(s) {}
  const char* TypeName() const override { return "bft-request"; }
  int ByteSize() const override { return 48 + cmd.ByteSize(); }
  Command cmd;
  /// Client's signature over cmd.Hash(): a Byzantine primary can reorder
  /// or drop requests but never fabricate one.
  crypto::Signature client_sig;
};

/// A replica's result for one client request.
struct BftReplyMsg : sim::Message {
  BftReplyMsg(uint64_t seq, int32_t from, std::string r, int64_t v = 0)
      : view(v), client_seq(seq), replica(from), result(std::move(r)) {}
  const char* TypeName() const override { return "bft-reply"; }
  int ByteSize() const override {
    return 24 + static_cast<int>(result.size());
  }
  /// The replica's view, for protocols whose clients follow the primary
  /// through replies (PBFT, MinBFT, XFT); 0 elsewhere.
  int64_t view = 0;
  uint64_t client_seq = 0;
  int32_t replica = -1;
  std::string result;
};

/// Closed-loop BFT client: issues `ops` signed "INC <key>" requests one
/// at a time, sends each to a target replica (or to all of them),
/// rebroadcasts it to every replica whenever `retry` passes without an
/// answer, and accepts a result once `quorum` replicas report the same
/// one. With quorum = f+1, at least one of the reporters is correct.
///
/// A protocol's differences are constants of that protocol, fixed by its
/// own SpawnClient: each Rule field below is one of them.
class QuorumClient : public sim::Process {
 public:
  /// Target value meaning "send every request to all replicas".
  static constexpr sim::NodeId kBroadcast = -1;

  struct Rule {
    int n = 0;               ///< Replicas are processes 0..n-1.
    int quorum = 1;          ///< Matching replies that settle a result.
    sim::NodeId target = 0;  ///< First recipient, or kBroadcast.
    bool follow_view = false;  ///< A reply's view % n becomes the target.
    sim::Duration retry = 500 * sim::kMillisecond;
  };

  QuorumClient(Rule rule, const crypto::KeyRegistry* registry, int ops,
               std::string key);

  int completed() const { return completed_; }
  bool done() const { return completed_ >= ops_; }
  const std::vector<std::string>& results() const { return results_; }

  void OnStart() override;
  void OnMessage(sim::NodeId from, const sim::Message& msg) override;

 protected:
  /// Runs when the current request has waited `retry` unanswered:
  /// rebroadcasts it to every replica.
  virtual void OnRetry() { SendCurrent(/*broadcast=*/true); }

  void SendCurrent(bool broadcast);
  int n() const { return rule_.n; }

 private:
  Rule rule_;
  const crypto::KeyRegistry* registry_;
  int ops_;
  std::string key_;
  sim::NodeId target_;
  int completed_ = 0;
  uint64_t seq_ = 0;
  uint64_t retry_timer_ = 0;
  /// result -> replicas that reported it for the current seq.
  std::map<std::string, std::set<sim::NodeId>> reply_votes_;
  std::vector<std::string> results_;
};

}  // namespace consensus40::smr

#endif  // CONSENSUS40_SMR_QUORUM_CLIENT_H_
