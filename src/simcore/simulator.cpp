#include "simcore/simulator.hpp"

#include <stdexcept>

#include "simcore/check.hpp"

namespace tls::sim {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

std::uint64_t Simulator::run(Time until) {
  std::uint64_t n = 0;
  while (dispatch_next(until)) ++n;
  // When stopping on the time bound with events still pending, advance the
  // clock to the bound so now() reflects the elapsed horizon.
  if (!queue_.empty() && until != kTimeMax && now_ < until) now_ = until;
  return n;
}

bool Simulator::dispatch_next(Time until) {
  Time at;
  EventQueue::Callback cb;
  if (!queue_.pop_due(until, at, cb)) return false;
  if (event_limit_ != 0 && dispatched_ >= event_limit_) {
    throw std::runtime_error("Simulator event limit exceeded");
  }
  TLS_CHECK(at >= now_, "clock would run backwards: event t=", at,
            " now=", now_);
  now_ = at;
  cb();
  ++dispatched_;
  return true;
}

PeriodicTimer::PeriodicTimer(Simulator& simulator, Time period,
                             std::function<void()> on_tick)
    : sim_(simulator), period_(period), on_tick_(std::move(on_tick)) {
  TLS_CHECK(period_ > Time{0}, "PeriodicTimer period must be positive, got ",
            period_);
  TLS_CHECK(on_tick_, "PeriodicTimer with null tick callback");
}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start(Time phase) {
  if (running_) return;
  running_ = true;
  arm(phase >= Time{0} ? phase : period_);
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
  pending_ = EventId{};
}

void PeriodicTimer::arm(Time delay) {
  pending_ = sim_.schedule_after(delay, [this] {
    if (!running_) return;
    on_tick_();
    if (running_) arm(period_);
  });
}

}  // namespace tls::sim
