// Differential tests of the event queue against an ordered-set model.
//
// Every event gets a token in scheduling order, and the model keeps the
// pending (time, token) pairs in a std::set, so its first element is the
// event the queue must fire next: ascending (time, seq). After every
// operation — schedule, cancel, clear, and each dispatched event — the
// queue's fire order, cancel() results, size() and tombstone count must
// agree with the model. The model also keeps each cancelled event until it
// is the least one queued, live or not, and counts it as a skipped
// tombstone there, at the next pop: where a heap alone discards it. The
// mixes run through Simulator::run, with callbacks that schedule and
// cancel re-entrantly, at coarse times so that many events share a time;
// one callback schedules enough events to grow the slot table while it
// runs. Cancels draw from every id ever issued, so ids of fired, cancelled
// and cleared events are tried against the later events that reuse their
// slots. The delay-lane mixes schedule most events at three recurring
// delays, so they run through the queue's lanes, with every time on one
// 16 ns grid so that lane heads and the heap top often share a time; a
// queue-level twin of Simulator adds clear() in the middle of a run.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/simulator.hpp"

namespace tls::sim {
namespace {

/// Deterministic 64-bit LCG (no std RNG, fixed streams).
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
};

/// The reference: pending events as ordered (time, token) pairs, the
/// cancelled ones not yet skipped beside them, plus the id and liveness of
/// every token ever issued.
struct Model {
  std::set<std::pair<Time, std::size_t>> pending;
  /// Pending events and the cancelled ones that no pop has skipped yet.
  std::set<std::pair<Time, std::size_t>> queued;
  std::vector<Time> at;
  std::vector<EventId> ids;
  std::vector<bool> live;
  /// Events cancelled or dropped by clear().
  std::size_t dropped = 0;
  /// Cancelled events skipped: what stats().tombstones_skipped must read.
  std::uint64_t tombstones = 0;

  std::size_t add(Time t) {
    std::size_t token = at.size();
    at.push_back(t);
    ids.emplace_back();
    live.push_back(true);
    pending.insert({t, token});
    queued.insert({t, token});
    return token;
  }
  /// What cancel(ids[token]) must return, applied to the model.
  bool cancel(std::size_t token) {
    if (!live[token]) return false;
    live[token] = false;
    pending.erase({at[token], token});
    ++dropped;
    return true;
  }
  /// What a pop (pop_due, peek_time) does before it looks at the least
  /// pending event: skips every cancelled event queued ahead of it. With
  /// nothing pending it looks at nothing and skips nothing.
  void skip_tombstones() {
    if (pending.empty()) return;
    while (!live[queued.begin()->second]) {
      queued.erase(queued.begin());
      ++tombstones;
    }
  }
  /// Removes the next event to fire and returns its token.
  std::size_t fire() {
    skip_tombstones();
    auto first = pending.begin();
    std::size_t token = first->second;
    queued.erase(*first);
    pending.erase(first);
    live[token] = false;
    return token;
  }
  void clear() {
    dropped += pending.size();
    pending.clear();
    queued.clear();
    live.assign(live.size(), false);
  }
};

/// Simulator's clock and run loop over a bare EventQueue, plus clear(),
/// which Simulator does not offer: the twin the mixes use to clear in the
/// middle of a run.
class ClearableSimulator {
 public:
  Time now() const { return now_; }
  template <typename F>
  EventId schedule_at(Time at, F&& f) {
    return queue_.schedule(at, std::forward<F>(f));
  }
  bool cancel(EventId id) { return queue_.cancel(id); }
  /// Simulator::run's loop and clock rule, one pop_due per event.
  void run(Time until) {
    for (;;) {
      Time at;
      EventQueue::Callback cb;
      if (!queue_.pop_due(until, at, cb)) break;
      now_ = at;
      cb();
    }
    if (!queue_.empty() && now_ < until) now_ = until;
  }
  void clear() { queue_.clear(); }
  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  const EventQueue::Stats& queue_stats() const { return queue_.stats(); }
  EventQueue::Footprint footprint() const { return queue_.footprint(); }

 private:
  EventQueue queue_;
  Time now_{};
};

/// How a mix picks the times it schedules at.
enum class Shape {
  /// Now, a few ns ahead, on a 16 ns grid or up to 100 us ahead.
  kCoarse,
  /// Mostly one of kRecurringDelays after now, else now or a multiple of
  /// 16 ns ahead, so every time stays on one 16 ns grid.
  kRecurring,
};
constexpr std::array<Time, 3> kRecurringDelays{Time{48}, Time{112},
                                               Time{160}};

/// A seeded mix over a Simulator (or its clearable twin) whose callbacks
/// check the model and schedule and cancel re-entrantly.
template <typename Sim>
class Mix {
 public:
  Mix(std::uint64_t seed, std::size_t budget, Shape shape = Shape::kCoarse)
      : rng_{seed}, budget_(budget), shape_(shape) {}

  /// Schedules an event at `t`. Every third capture owns a heap box
  /// holding its token, so moving it goes through the relocate operation
  /// and a corrupted move shows as a wrong token.
  void schedule(Time t) {
    std::size_t token = model_.add(t);
    if (budget_ > 0) --budget_;
    if (token % 3 == 0) {
      model_.ids[token] = sim_.schedule_at(
          t, [this, token, box = std::make_unique<std::size_t>(token)] {
            EXPECT_EQ(*box, token);
            fired(token);
          });
    } else {
      model_.ids[token] = sim_.schedule_at(t, [this, token] { fired(token); });
    }
    check();
  }

  /// Cancels a random token's id, live or stale, and checks the result.
  /// Recurring mixes pick one of the last 64 tokens half the time, so
  /// events still in a lane are cancelled often.
  void cancel_any() {
    if (model_.ids.empty()) return;
    std::size_t token = rng_.next() % model_.ids.size();
    if (shape_ == Shape::kRecurring && rng_.next() % 2 == 0) {
      std::size_t recent = std::min<std::size_t>(64, model_.ids.size());
      token = model_.ids.size() - 1 - rng_.next() % recent;
    }
    bool want = model_.cancel(token);
    EXPECT_EQ(sim_.cancel(model_.ids[token]), want) << "token " << token;
    check();
  }

  /// A time at or after now: often now itself or on a coarse grid, so
  /// events at equal times are common.
  Time later() {
    if (shape_ == Shape::kRecurring) {
      std::uint64_t roll = rng_.next() % 10;
      if (roll < 6) return sim_.now() + kRecurringDelays[rng_.next() % 3];
      if (roll < 7) return sim_.now();
      std::int64_t ticks = static_cast<std::int64_t>(
          roll < 9 ? rng_.next() % 16 : rng_.next() % 4096);
      return sim_.now() + Time{16 * ticks};
    }
    switch (rng_.next() % 4) {
      case 0:
        return sim_.now();
      case 1:
        return sim_.now() + Time{static_cast<std::int64_t>(rng_.next() % 4)};
      case 2:
        return sim_.now() +
               Time{static_cast<std::int64_t>(rng_.next() % 64) * 16};
      default:
        return sim_.now() +
               Time{static_cast<std::int64_t>(rng_.next() % 100'000)};
    }
  }

  /// Runs the mix to the end in run(until) slices, with outside schedules
  /// and cancels between slices. A slice that stops with events pending
  /// moves now() to `until`, past the last pop, so the schedules between
  /// slices are not at a recurring delay from it. Recurring mixes use
  /// short slices that end on the 16 ns grid.
  void run() {
    for (int i = 0; i < 64; ++i) schedule(later());
    while (!sim_.idle()) {
      Time until =
          sim_.now() +
          (shape_ == Shape::kRecurring
               ? Time{16 * static_cast<std::int64_t>(rng_.next() % 32)}
               : Time{static_cast<std::int64_t>(rng_.next() % 50'000)});
      sim_.run(until);
      // The pop that found nothing due skipped the tombstones ahead of
      // the least pending event.
      model_.skip_tombstones();
      if (!model_.pending.empty()) {
        EXPECT_GT(model_.pending.begin()->first, until);
      }
      check();
      if (budget_ > 0 && rng_.next() % 2 == 0) schedule(later());
      cancel_any();
    }
    EXPECT_TRUE(model_.pending.empty());
    EXPECT_EQ(fires_ + model_.dropped, model_.at.size());
  }

  /// A callback scheduled at `t` that, when it runs, schedules `burst`
  /// events (growing the slot table under it) and cancels every seventh.
  void schedule_burst(Time t, int burst) {
    std::size_t token = model_.add(t);
    model_.ids[token] = sim_.schedule_at(t, [this, token, burst] {
      fired(token);
      std::vector<std::size_t> mine;
      for (int i = 0; i < burst; ++i) {
        mine.push_back(model_.at.size());
        schedule(later());
      }
      for (std::size_t i = 0; i < mine.size(); i += 7) {
        bool want = model_.cancel(mine[i]);
        EXPECT_EQ(sim_.cancel(model_.ids[mine[i]]), want);
      }
      check();
    });
  }

  /// Clears the queue from inside one in every `period` callbacks (0:
  /// never); the run goes on with what the callback schedules next.
  void clear_every(std::uint64_t period) { clear_period_ = period; }

  Sim& sim() { return sim_; }
  const Model& model() const { return model_; }
  std::size_t fires() const { return fires_; }
  std::size_t clears() const { return clears_; }

 private:
  void fired(std::size_t token) {
    ++fires_;
    ASSERT_FALSE(model_.pending.empty()) << "token " << token;
    EXPECT_EQ(sim_.now(), model_.pending.begin()->first);
    EXPECT_EQ(token, model_.fire()) << "fired out of (time, seq) order";
    check();
    if constexpr (requires { sim_.clear(); }) {
      if (clear_period_ != 0 && rng_.next() % clear_period_ == 0) {
        sim_.clear();
        model_.clear();
        ++clears_;
        check();
      }
    }
    // Re-entrant work: 1.375 schedules per event on average, so the mix
    // grows until the schedule budget runs out.
    std::uint64_t roll = rng_.next() % 8;
    if (budget_ > 0) schedule(later());
    if (roll < 3 && budget_ > 0) schedule(later());
    if (roll >= 2 && roll < 5) cancel_any();
  }

  void check() {
    EXPECT_EQ(sim_.pending(), model_.pending.size());
    EXPECT_EQ(sim_.queue_stats().tombstones_skipped, model_.tombstones);
  }

  Sim sim_;
  Lcg rng_;
  std::size_t budget_;
  Shape shape_;
  Model model_;
  std::size_t fires_ = 0;
  std::uint64_t clear_period_ = 0;
  std::size_t clears_ = 0;
};

using SimulatorMix = Mix<Simulator>;

TEST(EventQueueDifferential, SeededSimulatorMixesMatchTheModel) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    SimulatorMix mix(seed, 20'000);
    mix.run();
    EXPECT_EQ(mix.sim().dispatched(), mix.fires());
    EXPECT_GT(mix.fires(), 10'000u);
  }
}

TEST(EventQueueDifferential, CallbackGrowsTheSlotTableWhileItRuns) {
  // Fewer than a hundred events are pending when the burst callback runs
  // at t=3, so the slot table is small; the callback then schedules 5000
  // more (a third of them with heap-owning captures), moving every stored
  // callback as the table grows under it.
  SimulatorMix mix(77, 20'000);
  for (int i = 0; i < 8; ++i) mix.schedule(Time{static_cast<std::int64_t>(i)});
  mix.schedule_burst(Time{3}, 5000);
  mix.run();
  EXPECT_GT(mix.fires(), 10'000u);
}

TEST(EventQueueDifferential, DelayLanesMatchTheModel) {
  // Most events are scheduled 48, 112 or 160 ns after the pop that runs
  // their callback, so three lanes bind to those delays and the fourth to
  // whatever delay next repeats; every time is on a 16 ns grid, so lane
  // heads tie with each other and with the heap top. Cancels hit events
  // still in a lane, and the run(until) slices leave now() past the last
  // pop.
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    SCOPED_TRACE(seed);
    Mix<Simulator> mix(seed, 20'000, Shape::kRecurring);
    mix.run();
    EXPECT_EQ(mix.sim().dispatched(), mix.fires());
    EXPECT_GT(mix.fires(), 10'000u);
    EXPECT_GT(mix.model().tombstones, 1'000u);
  }
  // The queue-level twin clears from inside callbacks: each clear() frees
  // the lanes, and the events scheduled after it bind them again once the
  // next pop gives a delay to measure from.
  for (std::uint64_t seed : {21u, 22u}) {
    SCOPED_TRACE(seed);
    Mix<ClearableSimulator> mix(seed, 20'000, Shape::kRecurring);
    mix.clear_every(2'000);
    mix.run();
    EXPECT_GE(mix.clears(), 2u);
    EXPECT_GT(mix.fires(), 5'000u);
    EXPECT_GT(mix.sim().footprint().lane_capacity, 0u);
  }
}

TEST(EventQueueDifferential, TombstonesCountWhereTheHeapCountedThem) {
  // A cancelled event is skipped, and counted, when it is the least event
  // queued at a pop, whether or not it is due: that is where the heap
  // alone discarded it. A cancelled lane head behind a live event stays.
  ClearableSimulator sim;
  auto skipped = [&sim] { return sim.queue_stats().tombstones_skipped; };
  std::vector<Time> fired;
  auto record = [&sim, &fired] { fired.push_back(sim.now()); };
  sim.schedule_at(Time{0}, [&] {
    sim.schedule_at(Time{100}, record);  // heap, delay 100
    sim.schedule_at(Time{100}, [&] {     // heap; binds a lane to 100
      record();
      // Delay 100 from this pop: into the lane at 200, then cancelled.
      EXPECT_TRUE(sim.cancel(sim.schedule_at(Time{200}, record)));
    });
    sim.schedule_at(Time{300}, record);  // heap, delay 300
    // The lane's first entry, at 100 behind both heap entries there.
    EXPECT_TRUE(sim.cancel(sim.schedule_at(Time{100}, record)));
  });
  sim.run(Time{50});
  EXPECT_GT(sim.footprint().lane_capacity, 0u);
  // The run stopped at the heap entry at 100, before the cancelled lane
  // head: nothing skipped.
  EXPECT_EQ(skipped(), 0u);
  sim.run(Time{100});
  // After both heap entries at 100 fired, the pop that found nothing due
  // skipped the lane head at 100 and the one at 200, past `until`, since
  // each was then the least event queued.
  EXPECT_EQ(fired, (std::vector<Time>{Time{100}, Time{100}}));
  EXPECT_EQ(skipped(), 2u);
  sim.run(kTimeMax);
  EXPECT_EQ(fired.back(), Time{300});
  EXPECT_EQ(skipped(), 2u);

  // Seeded: a Simulator mix at recurring delays that cancels lane entries
  // often; the count must equal the model's after every step.
  Mix<Simulator> mix(31, 20'000, Shape::kRecurring);
  mix.run();
  EXPECT_GT(mix.model().tombstones, 1'000u);
  EXPECT_EQ(mix.sim().queue_stats().tombstones_skipped,
            mix.model().tombstones);
}

TEST(EventQueueDifferential, CancelsAcrossSlotReuseAndClearMatchTheModel) {
  // The queue alone, so clear() is in the mix: schedules at coarse times,
  // cancels of any id ever issued, pops bounded by pop_due, and an
  // occasional clear(), which makes every earlier id stale.
  EventQueue q;
  Model model;
  Lcg rng{4711};
  Time horizon{0};
  for (int op = 0; op < 30'000; ++op) {
    std::uint64_t r = rng.next() % 100;
    if (r < 45 || model.pending.empty()) {
      Time t = horizon + Time{static_cast<std::int64_t>(rng.next() % 32) * 8};
      std::size_t token = model.add(t);
      model.ids[token] = q.schedule(t, [] {});
    } else if (r < 70) {
      std::size_t token = rng.next() % model.ids.size();
      bool want = model.cancel(token);
      ASSERT_EQ(q.cancel(model.ids[token]), want) << "op " << op;
    } else if (r < 99) {
      Time until = horizon + Time{static_cast<std::int64_t>(rng.next() % 64)};
      Time at;
      EventQueue::Callback cb;
      model.skip_tombstones();
      bool due = model.pending.begin()->first <= until;
      ASSERT_EQ(q.pop_due(until, at, cb), due) << "op " << op;
      if (due) {
        ASSERT_EQ(at, model.pending.begin()->first);
        model.fire();
        horizon = at;
      }
    } else {
      q.clear();
      model.clear();
      horizon = Time{0};
    }
    ASSERT_EQ(q.size(), model.pending.size()) << "op " << op;
    ASSERT_EQ(q.stats().tombstones_skipped, model.tombstones) << "op " << op;
  }
}

TEST(EventQueueDifferential,
     IdOfAFiredOrCancelledEventNeverCancelsItsSlotsNextEvent) {
  // With one event pending at a time, every event reuses slot 0, so each
  // retired id names the slot that the next event lives in.
  EventQueue q;
  std::vector<EventId> retired;
  for (int round = 0; round < 1000; ++round) {
    bool fired = false;
    EventId id = q.schedule(Time{round}, [&fired] { fired = true; });
    ASSERT_EQ(q.footprint().slots, 1u);
    for (EventId old : retired) ASSERT_FALSE(q.cancel(old)) << round;
    ASSERT_EQ(q.size(), 1u);
    if (round % 2 == 0) {
      q.pop().second();
      ASSERT_TRUE(fired);
    } else {
      ASSERT_TRUE(q.cancel(id));
      ASSERT_FALSE(fired);
    }
    if (round % 100 == 99) q.clear();
    retired.push_back(id);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace tls::sim
