#include "smr/quorum_client.h"

#include <memory>
#include <utility>

namespace consensus40::smr {

QuorumClient::QuorumClient(Rule rule, const crypto::KeyRegistry* registry,
                           int ops, std::string key)
    : rule_(rule),
      registry_(registry),
      ops_(ops),
      key_(std::move(key)),
      target_(rule.target) {}

void QuorumClient::OnStart() {
  seq_ = 1;
  SendCurrent(/*broadcast=*/false);
}

void QuorumClient::SendCurrent(bool broadcast) {
  if (done()) return;
  Command cmd{id(), seq_, "INC " + key_};
  crypto::Signature sig = registry_->Sign(id(), cmd.Hash());
  if (broadcast || target_ == kBroadcast) {
    for (int i = 0; i < rule_.n; ++i) {
      Send(i, std::make_shared<BftRequestMsg>(cmd, sig));
    }
  } else {
    Send(target_, std::make_shared<BftRequestMsg>(cmd, sig));
  }
  CancelTimer(retry_timer_);
  retry_timer_ = SetTimer(rule_.retry, [this] { OnRetry(); });
}

void QuorumClient::OnMessage(sim::NodeId from, const sim::Message& msg) {
  const auto* m = dynamic_cast<const BftReplyMsg*>(&msg);
  if (m == nullptr || m->client_seq != seq_ || done()) return;
  reply_votes_[m->result].insert(from);
  if (rule_.follow_view) target_ = m->view % rule_.n;
  if (static_cast<int>(reply_votes_[m->result].size()) >= rule_.quorum) {
    results_.push_back(m->result);
    reply_votes_.clear();
    ++completed_;
    ++seq_;
    if (done()) {
      CancelTimer(retry_timer_);
    } else {
      SendCurrent(/*broadcast=*/false);
    }
  }
}

}  // namespace consensus40::smr
