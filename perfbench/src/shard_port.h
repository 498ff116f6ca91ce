// The benchmark's own client of the shard layer: a simulated process that
// submits transactions to the TxCoordinator through its public message
// API (BeginTxMsg / TxOutcomeMsg).

#ifndef PERFBENCH_SHARD_PORT_H_
#define PERFBENCH_SHARD_PORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "shard/shard.h"
#include "sim/simulation.h"

namespace perfbench {

class TxPort : public consensus40::sim::Process {
 public:
  using OutcomeFn = std::function<void(const consensus40::shard::TxOutcomeMsg&)>;

  TxPort(consensus40::sim::NodeId coordinator, OutcomeFn on_outcome)
      : coordinator_(coordinator), on_outcome_(std::move(on_outcome)) {}

  /// Submits a transaction under a fresh id and returns the id.
  uint64_t Begin(std::vector<consensus40::shard::TxOp> ops) {
    const uint64_t id = ++next_id_;
    pending_[id].ops = std::move(ops);
    Transmit(id);
    return id;
  }

  /// Runs `fn` on this process after `delay` of virtual time.
  void After(consensus40::sim::Duration delay, std::function<void()> fn) {
    SetTimer(delay, std::move(fn));
  }

  void OnMessage(consensus40::sim::NodeId, const consensus40::sim::Message& msg) override {
    const auto* m = dynamic_cast<const consensus40::shard::TxOutcomeMsg*>(&msg);
    if (m == nullptr) return;
    auto it = pending_.find(m->tx_id);
    if (it == pending_.end()) return;  // A re-submission's second outcome.
    CancelTimer(it->second.timer);
    pending_.erase(it);
    on_outcome_(*m);
  }

 private:
  static constexpr consensus40::sim::Duration kResubmit =
      2 * consensus40::sim::kSecond;

  struct Pending {
    std::vector<consensus40::shard::TxOp> ops;
    uint64_t timer = 0;
  };

  /// (Re-)sends `id`; the timer is cancelled when its outcome arrives.
  void Transmit(uint64_t id) {
    Pending& p = pending_.at(id);
    Send(coordinator_,
                  std::make_shared<consensus40::shard::BeginTxMsg>(id, p.ops));
    p.timer = SetTimer(kResubmit, [this, id] { Transmit(id); });
  }

  consensus40::sim::NodeId coordinator_;
  OutcomeFn on_outcome_;
  uint64_t next_id_ = 0;
  std::map<uint64_t, Pending> pending_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SHARD_PORT_H_
