#include "sim/simulator.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace rb::sim {

namespace {

/// Event-kernel telemetry, resolved once per process. Pointers stay valid
/// for the registry's lifetime; increments are guarded by obs::enabled() at
/// the call site so a disabled run never touches the registry.
struct KernelMetrics {
  obs::Counter* dispatched;
  obs::Gauge* queue_depth;

  static KernelMetrics& get() {
    static KernelMetrics m{
        &obs::Registry::global().counter("sim.events_dispatched"),
        &obs::Registry::global().gauge("sim.event_queue_depth")};
    return m;
  }
};

inline void note_dispatch(std::size_t pending) noexcept {
  auto& m = KernelMetrics::get();
  m.dispatched->add();
  m.queue_depth->set(static_cast<double>(pending));
}

}  // namespace

EventHandle Simulator::schedule_at(SimTime when, EventFn fn) {
  if (when < now_)
    throw std::invalid_argument{"Simulator::schedule_at: time in the past"};
  return queue_.schedule(when, std::move(fn));
}

EventHandle Simulator::schedule_in(SimTime delay, EventFn fn) {
  if (delay < 0)
    throw std::invalid_argument{"Simulator::schedule_in: negative delay"};
  return queue_.schedule(now_ + delay, std::move(fn));
}

std::uint64_t Simulator::run() {
  std::uint64_t processed = 0;
  const bool observed = obs::enabled();
  while (!queue_.empty()) {
    auto [when, fn] = queue_.pop();
    now_ = when;
    if (observed) note_dispatch(queue_.size());
    fn();
    ++processed;
  }
  return processed;
}

std::uint64_t Simulator::run_until(SimTime until) {
  if (until < now_)
    throw std::invalid_argument{"Simulator::run_until: time in the past"};
  std::uint64_t processed = 0;
  const bool observed = obs::enabled();
  while (!queue_.empty() && queue_.next_time() <= until) {
    auto [when, fn] = queue_.pop();
    now_ = when;
    if (observed) note_dispatch(queue_.size());
    fn();
    ++processed;
  }
  if (now_ < until) now_ = until;
  return processed;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [when, fn] = queue_.pop();
  now_ = when;
  if (obs::enabled()) note_dispatch(queue_.size());
  fn();
  return true;
}

}  // namespace rb::sim
