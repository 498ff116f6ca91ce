#include "check/bft_adapter.h"

#include <memory>
#include <optional>
#include <utility>

namespace consensus40::check {
namespace {

class BftCheckAdapter : public ProtocolAdapter {
 public:
  BftCheckAdapter(std::shared_ptr<const BftSpec> spec, uint64_t seed)
      : spec_(std::move(spec)),
        registry_(seed, spec_->n + 4),
        usig_(&registry_),
        byz_(spec_->hooks ? spec_->hooks(&registry_)
                          : sim::ByzantineInterposer::Hooks{}) {}

  const char* name() const override { return spec_->name.c_str(); }

  FaultBounds bounds() const override { return spec_->bounds; }

  void Build(sim::Simulation* sim) override {
    cluster_.emplace(sim, &registry_, &usig_, spec_->ops, spec_->protocol);
    spec_->spawn(&*cluster_);
    if (spec_->bounds.max_byzantine > 0) byz_.Attach(sim);
  }

  bool Done() const override { return cluster_->Done(); }

  Observation Observe() const override {
    Observation o;
    cluster_->Observe(&o);
    return o;
  }

 private:
  std::shared_ptr<const BftSpec> spec_;
  crypto::KeyRegistry registry_;
  crypto::Usig usig_;
  sim::ByzantineInterposer byz_;
  std::optional<BftCluster> cluster_;
};

}  // namespace

BftSpec ByzantineTwin(BftSpec spec) {
  spec.name += "_byz";
  spec.ops = 12;
  spec.bounds.max_byzantine = 1;
  spec.bounds.byz_first_node = 0;
  spec.bounds.byz_nodes = spec.n;
  spec.bounds.byz_withhold = true;
  spec.bounds.byz_mutate = true;
  spec.bounds.byz_replay = true;
  return spec;
}

AdapterFactory MakeBftAdapter(BftSpec spec) {
  auto shared = std::make_shared<const BftSpec>(std::move(spec));
  return [shared](uint64_t seed) {
    return std::make_unique<BftCheckAdapter>(shared, seed);
  };
}

}  // namespace consensus40::check
