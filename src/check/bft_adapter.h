/// \file
/// The one checker adapter behind the BFT protocols' factories (PBFT,
/// MinBFT, HotStuff, XFT, Zyzzyva, CheapBFT and their Byzantine twins).
/// Each protocol's *_check.cc supplies only what differs as a BftSpec:
/// fault bounds, the cluster it spawns (replica options and client), the
/// Byzantine opt-ins, and — for PBFT — the interposer's forge/corrupt
/// hooks. The adapter owns the per-seed key registry and USIG, observes
/// every replica's executed commands as its committed log, and folds in
/// the replicas' self-reported violations where they keep any.

#ifndef CONSENSUS40_CHECK_BFT_ADAPTER_H_
#define CONSENSUS40_CHECK_BFT_ADAPTER_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "crypto/signatures.h"
#include "sim/byzantine.h"
#include "sim/simulation.h"
#include "smr/command.h"

namespace consensus40::check {

/// What a BftSpec's `spawn` builds into, and how the adapter watches it.
class BftCluster {
 public:
  BftCluster(sim::Simulation* sim, const crypto::KeyRegistry* registry,
             crypto::Usig* usig, int ops, std::string protocol)
      : sim_(sim),
        registry_(registry),
        usig_(usig),
        ops_(ops),
        protocol_(std::move(protocol)) {}

  sim::Simulation* sim() const { return sim_; }
  const crypto::KeyRegistry* registry() const { return registry_; }
  /// The cluster's trusted counter, for the USIG protocols.
  crypto::Usig* usig() const { return usig_; }
  /// Client requests the workload issues.
  int ops() const { return ops_; }

  /// Observes `replica`: its executed commands are its committed log and,
  /// when it keeps violations(), they are self-reported.
  template <typename Replica>
  void AddReplica(const Replica* replica) {
    observers_.push_back([replica, protocol = protocol_](Observation* o) {
      std::vector<std::string> log;
      for (const smr::Command& cmd : replica->executed_commands()) {
        log.push_back(cmd.ToString());
      }
      o->logs.push_back(std::move(log));
      if constexpr (requires { replica->violations(); }) {
        for (const std::string& v : replica->violations()) {
          o->self_reported.push_back(protocol + " replica " +
                                     std::to_string(replica->id()) + ": " +
                                     v);
        }
      }
    });
  }

  /// The workload is done when `client` is.
  template <typename Client>
  void SetClient(const Client* client) {
    done_ = [client] { return client->done(); };
  }

  bool Done() const { return done_(); }
  void Observe(Observation* o) const {
    for (const auto& observe : observers_) observe(o);
  }

 private:
  sim::Simulation* sim_;
  const crypto::KeyRegistry* registry_;
  crypto::Usig* usig_;
  int ops_;
  std::string protocol_;
  std::vector<std::function<void(Observation*)>> observers_;
  std::function<bool()> done_;
};

/// One BFT protocol's checker adapter, as data.
struct BftSpec {
  /// Roster name ("pbft", "pbft_byz", ...).
  std::string name;
  /// Prefix of self-reported violations ("pbft replica 2: ...").
  std::string protocol;
  /// Replicas; the key registry covers n + 4 nodes.
  int n = 0;
  int ops = 4;
  /// A Byzantine twin (bounds.max_byzantine > 0) attaches a
  /// sim::ByzantineInterposer after `spawn`.
  FaultBounds bounds;
  /// Spawns the replicas, then the client, into the cluster.
  std::function<void(BftCluster*)> spawn;
  /// Protocol knowledge for the interposer (PBFT only); none by default.
  std::function<sim::ByzantineInterposer::Hooks(const crypto::KeyRegistry*)>
      hooks;
};

/// The Byzantine twin of `spec`: named "<name>_byz", 12 client requests,
/// and one liar among all n replicas that may withhold, corrupt and
/// replay outbound traffic. Protocols adjust the opt-ins from there.
BftSpec ByzantineTwin(BftSpec spec);

AdapterFactory MakeBftAdapter(BftSpec spec);

}  // namespace consensus40::check

#endif  // CONSENSUS40_CHECK_BFT_ADAPTER_H_
