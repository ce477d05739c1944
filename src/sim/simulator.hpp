#pragma once
// Discrete-event simulator: a clock plus a pending-event set.
//
//   Simulator sim;
//   sim.schedule_in(10 * kMicrosecond, [&] { ... });
//   sim.run();
//
// Event callbacks may schedule further events. The simulator is
// single-threaded by design; parallelism in rethinkbig lives in the
// dataflow/accel layers, not in the simulation kernel.
//
// Scheduling allocates nothing in steady state (see event_queue.hpp): the
// callable moves into a slot of the queue's arena when its capture fits in
// EventFn's 64 inline bytes. The returned EventHandle points into this
// simulator, so a handle must not be used after its Simulator is destroyed;
// the simulator cannot be copied or moved for the same reason.

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/units.hpp"

namespace rb::sim {

class Simulator {
 public:
  SimTime now() const noexcept { return now_; }

  /// Schedule at an absolute simulated time (>= now()).
  EventHandle schedule_at(SimTime when, EventFn fn);

  /// Schedule `delay` after now(). Requires delay >= 0.
  EventHandle schedule_in(SimTime delay, EventFn fn);

  /// Run until the event queue is empty. Returns events processed.
  std::uint64_t run();

  /// Run every event due at or before `until` (>= now()), then leave the
  /// clock at `until`. Returns events processed.
  std::uint64_t run_until(SimTime until);

  /// Process exactly one event if available. Returns false if queue empty.
  bool step();

  std::size_t pending_events() const noexcept { return queue_.size(); }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
};

}  // namespace rb::sim
