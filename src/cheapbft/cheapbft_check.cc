/// Checker adapters for CheapBFT: 2f+1=3 replicas, f+1 active. A crash
/// among the active set triggers PANIC -> CheapSwitch -> MinBFT fallback,
/// which is exactly the transition the sweep should hammer.

#include <utility>

#include "check/adapters.h"
#include "check/bft_adapter.h"
#include "cheapbft/cheapbft.h"

namespace consensus40::check {
namespace {

BftSpec CheapBftSpec() {
  constexpr int kF = 1;
  constexpr int kN = 2 * kF + 1;
  BftSpec spec;
  spec.name = spec.protocol = "cheapbft";
  spec.n = kN;
  // The CheapSwitch fallback pins the primary at replica 0 (no view
  // change: Primary() is constant in both modes), so a primary crash is
  // unrecoverable BY CONSTRUCTION and outside the implemented model.
  // Crashing replica 1 (active) or 2 (passive) stays in-model and still
  // exercises the PANIC -> CheapSwitch -> MinBFT-fallback transition.
  spec.bounds.first_node = 1;
  spec.bounds.nodes = kN - 1;
  spec.bounds.max_crashed = kF;
  spec.spawn = [](BftCluster* c) {
    cheapbft::CheapBftOptions opts;
    opts.f = kF;
    opts.registry = c->registry();
    opts.usig = c->usig();
    for (int i = 0; i < kN; ++i) {
      c->AddReplica(c->sim()->Spawn<cheapbft::CheapBftReplica>(opts));
    }
    c->SetClient(
        cheapbft::SpawnClient(c->sim(), kF, c->registry(), c->ops()));
  };
  return spec;
}

}  // namespace

AdapterFactory MakeCheapBftAdapter() {
  return MakeBftAdapter(CheapBftSpec());
}

/// In-bounds Byzantine CheapBFT: any one replica — active or passive —
/// may withhold, corrupt (generic degradation: dropped), or replay
/// outbound traffic. A silent active replica is the protocol's signature
/// fault: clients PANIC, the cluster runs CheapSwitch, and the MinBFT
/// fallback must pick up exactly where the optimistic f+1 quorum left
/// off. USIG counters keep replayed captures inert, as in MinBFT.
/// The pinned primary stays in the Byzantine pool even though it is
/// shielded from crashes: a Byzantine window ends, so the primary comes
/// back and liveness is recoverable — a crash is forever.
AdapterFactory MakeCheapBftByzantineAdapter() {
  return MakeBftAdapter(ByzantineTwin(CheapBftSpec()));
}

}  // namespace consensus40::check
