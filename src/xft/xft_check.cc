/// Checker adapters for XFT (XPaxos): n=2f+1=5. The in-bounds model is
/// crash faults only — XFT's bet is that crash faults and partitions
/// together stay under f, and Byzantine-plus-partition "anarchy" is
/// outside the model — so schedules crash up to f replicas and spike
/// delays, but never cut the network.

#include <utility>

#include "check/adapters.h"
#include "check/bft_adapter.h"
#include "xft/xft.h"

namespace consensus40::check {
namespace {

BftSpec XftSpec() {
  constexpr int kN = 5;
  BftSpec spec;
  spec.name = spec.protocol = "xft";
  spec.n = kN;
  spec.bounds.nodes = kN;
  spec.bounds.max_crashed = (kN - 1) / 2;
  spec.spawn = [](BftCluster* c) {
    xft::XftOptions opts;
    opts.n = kN;
    opts.registry = c->registry();
    for (int i = 0; i < kN; ++i) {
      c->AddReplica(c->sim()->Spawn<xft::XftReplica>(opts));
    }
    c->SetClient(xft::SpawnClient(c->sim(), kN, c->registry(), c->ops()));
  };
  return spec;
}

}  // namespace

AdapterFactory MakeXftAdapter() { return MakeBftAdapter(XftSpec()); }

/// In-bounds Byzantine XFT: one replica may withhold or replay outbound
/// traffic — the non-anarchy slice of XFT's model, where a Byzantine
/// machine exists but the network stays connected and the combined
/// (crash + Byzantine) fault count stays under f. No mutate: a corrupted
/// message plus a delay spike is indistinguishable from the
/// partition-plus-Byzantine "anarchy" XFT explicitly does not claim.
AdapterFactory MakeXftByzantineAdapter() {
  BftSpec spec = ByzantineTwin(XftSpec());
  spec.bounds.byz_mutate = false;
  return MakeBftAdapter(std::move(spec));
}

}  // namespace consensus40::check
