#include "trace.h"


namespace perfbench {

using consensus40::sim::Envelope;
using consensus40::sim::NodeId;
using consensus40::sim::Simulation;
using consensus40::sim::Time;

Simulation::TraceFn Tracer::Hook() {
  return [this](const Envelope& env, Time deliver_time) {
    delivered_ = true;
    to_ = env.to;
    type_ = env.msg->TypeName();
    if (on_envelope_) on_envelope_(env, deliver_time);
  };
}

int Tracer::LayerIndex(const std::string& layer) {
  for (size_t i = 0; i < layer_names_.size(); ++i) {
    if (layer_names_[i] == layer) return static_cast<int>(i);
  }
  layer_names_.push_back(layer);
  by_type_.emplace_back();
  by_layer_.emplace_back();
  return static_cast<int>(layer_names_.size() - 1);
}

void Tracer::SetLayer(NodeId id, const std::string& layer) {
  if (id < 0) return;
  if (static_cast<size_t>(id) >= layer_of_.size()) {
    layer_of_.resize(static_cast<size_t>(id) + 1, -1);
  }
  layer_of_[static_cast<size_t>(id)] = LayerIndex(layer);
}

void Tracer::BeginEvent() {
  delivered_ = false;
  begin_ = std::chrono::steady_clock::now();
}

void Tracer::EndEvent() {
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - begin_)
                        .count();
  if (!delivered_) {
    timers_.ns += ns;
    ++timers_.events;
    return;
  }
  int layer = -1;
  if (to_ >= 0 && static_cast<size_t>(to_) < layer_of_.size()) {
    layer = layer_of_[static_cast<size_t>(to_)];
  }
  if (layer < 0) layer = default_ >= 0 ? default_ : LayerIndex("other");
  Bucket& b = by_layer_[static_cast<size_t>(layer)];
  b.ns += ns;
  ++b.events;
  Bucket& t = by_type_[static_cast<size_t>(layer)][type_];
  t.ns += ns;
  ++t.events;
}

Tracer::Bucket Tracer::Layer(const std::string& layer) const {
  for (size_t i = 0; i < layer_names_.size(); ++i) {
    if (layer_names_[i] == layer) return by_layer_[i];
  }
  return {};
}

Tracer::Bucket Tracer::LayerType(const std::string& layer,
                                 const std::string& type) const {
  for (size_t i = 0; i < layer_names_.size(); ++i) {
    if (layer_names_[i] != layer) continue;
    auto it = by_type_[i].find(type);
    return it == by_type_[i].end() ? Bucket{} : it->second;
  }
  return {};
}

}  // namespace perfbench
