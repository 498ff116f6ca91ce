/// Checker adapters for Zyzzyva: n=3f+1=4, speculative execution with the
/// client as commit point. The module implements the agreement protocol
/// only (no view changes), so the primary is shielded from faults and
/// schedules crash at most f backups.

#include <utility>

#include "check/adapters.h"
#include "check/bft_adapter.h"
#include "zyzzyva/zyzzyva.h"

namespace consensus40::check {
namespace {

constexpr int kN = 4;

BftSpec ZyzzyvaSpec() {
  BftSpec spec;
  spec.name = spec.protocol = "zyzzyva";
  spec.n = kN;
  spec.bounds.first_node = 1;  // No view change: the primary must stay up.
  spec.bounds.nodes = kN - 1;
  spec.bounds.max_crashed = (kN - 1) / 3;
  spec.spawn = [](BftCluster* c) {
    zyzzyva::ZyzzyvaOptions opts;
    opts.n = kN;
    opts.registry = c->registry();
    for (int i = 0; i < kN; ++i) {
      c->AddReplica(c->sim()->Spawn<zyzzyva::ZyzzyvaReplica>(opts));
    }
    c->SetClient(c->sim()->Spawn<zyzzyva::ZyzzyvaClient>(kN, c->registry(),
                                                         c->ops()));
  };
  return spec;
}

}  // namespace

AdapterFactory MakeZyzzyvaAdapter() { return MakeBftAdapter(ZyzzyvaSpec()); }

/// In-bounds Byzantine Zyzzyva: one of the three BACKUPS may withhold,
/// corrupt (generic interposer degradation: dropped), or replay its
/// outbound traffic. The primary stays both un-crashable AND un-Byzantine
/// — without a view-change path a lying primary is simply outside the
/// module's model, exactly like a crashed one (see the bounds-contract
/// test in tests/zyzzyva_test.cc). Speculative execution means a silent
/// backup pushes clients off the 3f+1 fast path onto the 2f+1
/// commit-certificate path, which is the transition worth hammering.
AdapterFactory MakeZyzzyvaByzantineAdapter() {
  BftSpec spec = ByzantineTwin(ZyzzyvaSpec());
  spec.bounds.byz_first_node = 1;  // Backups only, same window as crashes.
  spec.bounds.byz_nodes = kN - 1;
  return MakeBftAdapter(std::move(spec));
}

}  // namespace consensus40::check
