// Traced mode: times every simulation event and charges it to the layer
// of the process that receives it, with the message TypeName as a
// sub-key. Events that deliver no message (timers, sim callbacks) are
// charged to the engine's timer work.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace perfbench {

class Tracer {
 public:
  Tracer() = default;
  // The hook captures `this`.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  struct Bucket {
    double ns = 0;
    uint64_t events = 0;
  };
  /// Extra per-delivery observer (phase latencies from envelope times).
  using EnvelopeFn =
      std::function<void(const consensus40::sim::Envelope&,
                         consensus40::sim::Time deliver_time)>;

  /// The delivery hook to install with Simulation::Builder::Trace.
  consensus40::sim::Simulation::TraceFn Hook();

  void SetLayer(consensus40::sim::NodeId id, const std::string& layer);
  /// Layer of processes never named by SetLayer (e.g. spawned mid-run).
  void SetDefaultLayer(const std::string& layer) { default_ = LayerIndex(layer); }
  void SetEnvelopeFn(EnvelopeFn fn) { on_envelope_ = std::move(fn); }

  /// Brackets one simulation event: the time between the two calls is
  /// charged to the layer of the process the event delivered to.
  void BeginEvent();
  void EndEvent();

  /// Host time and event count charged to `layer` (all message types).
  Bucket Layer(const std::string& layer) const;
  /// Host time charged to `layer` for messages of one type.
  Bucket LayerType(const std::string& layer, const std::string& type) const;
  const Bucket& timers() const { return timers_; }

 private:
  std::vector<int> layer_of_;  ///< Node id -> layer index (-1 = default).
  int default_ = -1;           ///< -1 = a layer named "other".
  std::vector<std::string> layer_names_;
  std::vector<std::map<std::string, Bucket>> by_type_;  ///< Per layer.
  std::vector<Bucket> by_layer_;
  Bucket timers_;
  int LayerIndex(const std::string& layer);

  std::chrono::steady_clock::time_point begin_;
  // Set by the hook during an event that delivers a message.
  bool delivered_ = false;
  consensus40::sim::NodeId to_ = consensus40::sim::kInvalidNode;
  const char* type_ = nullptr;
  EnvelopeFn on_envelope_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
