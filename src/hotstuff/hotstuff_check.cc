/// Checker adapters for HotStuff: n=3f+1=4 with rotating leaders.
/// Crash-stop faults plus delay spikes (the pacemaker absorbs asynchrony
/// bursts by rotating views).

#include <utility>

#include "check/adapters.h"
#include "check/bft_adapter.h"
#include "hotstuff/hotstuff.h"

namespace consensus40::check {
namespace {

BftSpec HotStuffSpec() {
  constexpr int kN = 4;
  BftSpec spec;
  spec.name = spec.protocol = "hotstuff";
  spec.n = kN;
  spec.bounds.nodes = kN;
  spec.bounds.max_crashed = (kN - 1) / 3;
  spec.spawn = [](BftCluster* c) {
    hotstuff::HotStuffOptions opts;
    opts.n = kN;
    opts.registry = c->registry();
    for (int i = 0; i < kN; ++i) {
      c->AddReplica(c->sim()->Spawn<hotstuff::HotStuffReplica>(opts));
    }
    c->SetClient(
        hotstuff::SpawnClient(c->sim(), kN, c->registry(), c->ops()));
  };
  return spec;
}

}  // namespace

AdapterFactory MakeHotStuffAdapter() {
  return MakeBftAdapter(HotStuffSpec());
}

/// In-bounds Byzantine HotStuff: any one of the four replicas may
/// withhold, corrupt (generic degradation: dropped), or replay outbound
/// traffic. A silent or lying leader is absorbed by the pacemaker — views
/// rotate past it — and the three-chain commit rule plus the
/// replica-level SafeNode checks (self-reported as violations) must hold
/// for every schedule.
AdapterFactory MakeHotStuffByzantineAdapter() {
  return MakeBftAdapter(ByzantineTwin(HotStuffSpec()));
}

}  // namespace consensus40::check
