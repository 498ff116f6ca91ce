/// Checker adapters for MinBFT: n=2f+1=3 with the shared trusted USIG.
/// Crash-stop (no restart path) — the USIG counters make a restarted
/// replica's old incarnation indistinguishable from equivocation.

#include <utility>

#include "check/adapters.h"
#include "check/bft_adapter.h"
#include "minbft/minbft.h"

namespace consensus40::check {
namespace {

BftSpec MinBftSpec() {
  constexpr int kN = 3;
  BftSpec spec;
  spec.name = spec.protocol = "minbft";
  spec.n = kN;
  spec.bounds.nodes = kN;
  spec.bounds.max_crashed = (kN - 1) / 2;
  spec.spawn = [](BftCluster* c) {
    minbft::MinBftOptions opts;
    opts.n = kN;
    opts.registry = c->registry();
    opts.usig = c->usig();
    for (int i = 0; i < kN; ++i) {
      c->AddReplica(c->sim()->Spawn<minbft::MinBftReplica>(opts));
    }
    c->SetClient(minbft::SpawnClient(c->sim(), kN, c->registry(), c->ops()));
  };
  return spec;
}

}  // namespace

AdapterFactory MakeMinBftAdapter() { return MakeBftAdapter(MinBftSpec()); }

/// In-bounds Byzantine MinBFT: any one of the three replicas may
/// withhold, corrupt (generic degradation: dropped), or replay outbound
/// traffic. No equivocation forge — that is the whole point of the USIG:
/// a twin message would need a second UI for the same counter, which the
/// trusted component refuses to mint. Replayed captures carry stale USIG
/// counters and must bounce off the monotonicity check.
AdapterFactory MakeMinBftByzantineAdapter() {
  return MakeBftAdapter(ByzantineTwin(MinBftSpec()));
}

}  // namespace consensus40::check
