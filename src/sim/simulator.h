// The simulation executive: owns the clock and the event queue. Components
// hold a reference to the Simulator and schedule callbacks; run() drains
// events in time order until a stop condition. Under PDES (pdes.h) each
// partition owns one Simulator and the engine drives the queues directly;
// components are none the wiser.
#pragma once

#include "sim/event_queue.h"
#include "sim/time.h"

namespace cmap::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (valid inside executing events).
  Time now() const { return queue_.current_time(); }

  /// Schedule `fn` to run at absolute time `at` (>= now()).
  EventId at(Time when, EventFn fn) {
    return queue_.schedule(when, std::move(fn));
  }

  /// Schedule `fn` to run `delay` nanoseconds from now (delay >= 0).
  EventId in(Time delay, EventFn fn) {
    return queue_.schedule(now() + delay, std::move(fn));
  }

  /// Ranked variants: explicit same-tick ordering (see EventRank). The
  /// medium schedules deliveries and the dynamics subsystem its global
  /// steps through these so the serial queue sorts same-instant events
  /// exactly as the partitioned engine executes them.
  EventId at_ranked(Time when, EventRank rank, EventFn fn) {
    return queue_.schedule_ranked(when, rank, std::move(fn));
  }
  EventId in_ranked(Time delay, EventRank rank, EventFn fn) {
    return queue_.schedule_ranked(now() + delay, rank, std::move(fn));
  }

  /// Run until the queue drains or stop() is called.
  void run();

  /// Run until simulated time reaches `until` (events at exactly `until`
  /// are executed), the queue drains, or stop() is called.
  void run_until(Time until);

  /// Request that run()/run_until() return after the current event. Not
  /// honored by the PDES engine (no caller needs it mid-partitioned-run;
  /// see docs/pdes.md).
  void stop() { stopped_ = true; }

  std::uint64_t events_executed() const { return queue_.executed(); }

  /// Direct queue access for the PDES engine, which merges and windows
  /// several queues itself. Components should schedule via at()/in().
  EventQueue& queue() { return queue_; }

 private:
  EventQueue queue_;
  bool stopped_ = false;
};

}  // namespace cmap::sim
