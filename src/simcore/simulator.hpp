// The discrete-event simulator: a clock plus an event queue plus run loops.
//
// All simulated components hold a Simulator& and schedule work through it.
// The simulator never advances time except by draining events, so every
// timing decision is explicit in some component's schedule() call.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>

#include "simcore/check.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/rng.hpp"
#include "simcore/time.hpp"

namespace tls::obs {
class Tracer;
}  // namespace tls::obs

namespace tls::sim {

/// Discrete-event simulation driver.
class Simulator {
 public:
  /// `seed` feeds the root Rng; all component streams fork from it.
  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  Time now() const { return now_; }

  /// Schedules `f` to run `delay` from now (delay >= 0); see
  /// EventQueue::schedule.
  template <typename F>
  EventId schedule_after(Time delay, F&& f) {
    TLS_CHECK(delay >= Time{0}, "schedule_after with negative delay=", delay,
              " at now=", now_);
    return queue_.schedule(now_ + delay, std::forward<F>(f));
  }

  /// Schedules `f` at absolute time `at` (at >= now()).
  template <typename F>
  EventId schedule_at(Time at, F&& f) {
    TLS_CHECK(at >= now_, "schedule_at in the past: at=", at, " now=", now_);
    return queue_.schedule(at, std::forward<F>(f));
  }

  /// Cancels a pending event; see EventQueue::cancel.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the event queue is empty or `until` is reached, whichever
  /// comes first. Events scheduled exactly at `until` do fire. Returns the
  /// number of events dispatched.
  std::uint64_t run(Time until = kTimeMax);

  /// Runs a single event if one is pending. Returns false when idle.
  bool step() { return dispatch_next(kTimeMax); }

  /// True when no events remain.
  bool idle() const { return queue_.empty(); }

  /// Number of pending events.
  std::size_t pending() const { return queue_.size(); }

  /// Total events dispatched since construction.
  std::uint64_t dispatched() const { return dispatched_; }

  /// Event-queue activity counters (schedules, cancels, pops, tombstone
  /// skips); bench_simcore and the end-of-run obs export read these.
  const EventQueue::Stats& queue_stats() const { return queue_.stats(); }

  /// Root random generator. Components should fork() child streams with
  /// stable labels rather than drawing from this directly.
  Rng& rng() { return rng_; }

  /// Installs a hard cap on dispatched events (guards against runaway
  /// feedback loops in tests): run() and step() throw instead of
  /// dispatching one more event than `limit`, and that event is dropped.
  /// 0 disables the cap (default).
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

  /// Observability hook. The simulator only carries the pointer (forward
  /// declaration — no dependency on src/obs); components fetch it at
  /// construction/wiring time and guard every emission with
  /// TLS_OBS_ACTIVE. Null (the default) means "no observability".
  obs::Tracer* tracer() const { return tracer_; }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  /// Pops the earliest event due at or before `until` and runs it; returns
  /// false when none is due.
  bool dispatch_next(Time until);

  EventQueue queue_;
  Time now_{};
  std::uint64_t dispatched_ = 0;
  std::uint64_t event_limit_ = 0;
  obs::Tracer* tracer_ = nullptr;
  Rng rng_;
};

/// Re-arming periodic timer built on a Simulator. Used for utilization
/// sampling and the TLs-RR rotation interval. The callback may stop the
/// timer from within itself.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& simulator, Time period, std::function<void()> on_tick);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts ticking; first tick fires one period from now (or at `phase`
  /// from now if given). No-op when already running.
  void start(Time phase = Time{-1});

  /// Stops ticking; pending tick is cancelled.
  void stop();

  bool running() const { return running_; }
  Time period() const { return period_; }

  /// Changes the period; takes effect at the next re-arm.
  void set_period(Time period) { period_ = period; }

 private:
  void arm(Time delay);

  Simulator& sim_;
  Time period_;
  std::function<void()> on_tick_;
  EventId pending_{};
  bool running_ = false;
};

}  // namespace tls::sim
