// Differential tests of the event queue against an ordered-set model.
//
// Every event gets a token in scheduling order, and the model keeps the
// pending (time, token) pairs in a std::set, so its first element is the
// event the queue must fire next: ascending (time, seq). After every
// operation — schedule, cancel, clear, and each dispatched event — the
// queue's fire order, cancel() results and size() must agree with the
// model. The mixes run through Simulator::run, with callbacks that
// schedule and cancel re-entrantly, at coarse times so that many events
// share a time; one callback schedules enough events to grow the slot
// table while it runs. Cancels draw from every id ever issued, so ids of
// fired, cancelled and cleared events are tried against the later events
// that reuse their slots.
#include <gtest/gtest.h>

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

/// The reference: pending events as ordered (time, token) pairs, plus the
/// id and liveness of every token ever issued.
struct Model {
  std::set<std::pair<Time, std::size_t>> pending;
  std::vector<Time> at;
  std::vector<EventId> ids;
  std::vector<bool> live;
  /// Events cancelled or dropped by clear().
  std::size_t dropped = 0;

  std::size_t add(Time t) {
    std::size_t token = at.size();
    at.push_back(t);
    ids.emplace_back();
    live.push_back(true);
    pending.insert({t, token});
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
  /// Removes the next event to fire and returns its token.
  std::size_t fire() {
    auto first = pending.begin();
    std::size_t token = first->second;
    pending.erase(first);
    live[token] = false;
    return token;
  }
  void clear() {
    dropped += pending.size();
    pending.clear();
    live.assign(live.size(), false);
  }
};

/// A seeded Simulator mix whose callbacks check the model and schedule and
/// cancel re-entrantly.
class SimulatorMix {
 public:
  SimulatorMix(std::uint64_t seed, std::size_t budget)
      : rng_{seed}, budget_(budget) {}

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
    check_size();
  }

  /// Cancels a random token's id, live or stale, and checks the result.
  void cancel_any() {
    if (model_.ids.empty()) return;
    std::size_t token = rng_.next() % model_.ids.size();
    bool want = model_.cancel(token);
    EXPECT_EQ(sim_.cancel(model_.ids[token]), want) << "token " << token;
    check_size();
  }

  /// A time at or after now: often now itself or on a coarse grid, so
  /// events at equal times are common.
  Time later() {
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
  /// and cancels between slices.
  void run() {
    for (int i = 0; i < 64; ++i) schedule(later());
    while (!sim_.idle()) {
      Time until = sim_.now() + Time{static_cast<std::int64_t>(
                                    rng_.next() % 50'000)};
      sim_.run(until);
      if (!model_.pending.empty()) {
        EXPECT_GT(model_.pending.begin()->first, until);
      }
      check_size();
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
      check_size();
    });
  }

  Simulator& sim() { return sim_; }
  std::size_t fires() const { return fires_; }

 private:
  void fired(std::size_t token) {
    ++fires_;
    ASSERT_FALSE(model_.pending.empty()) << "token " << token;
    EXPECT_EQ(sim_.now(), model_.pending.begin()->first);
    EXPECT_EQ(token, model_.fire()) << "fired out of (time, seq) order";
    check_size();
    // Re-entrant work: 1.375 schedules per event on average, so the mix
    // grows until the schedule budget runs out.
    std::uint64_t roll = rng_.next() % 8;
    if (budget_ > 0) schedule(later());
    if (roll < 3 && budget_ > 0) schedule(later());
    if (roll >= 2 && roll < 5) cancel_any();
  }

  void check_size() { EXPECT_EQ(sim_.pending(), model_.pending.size()); }

  Simulator sim_;
  Lcg rng_;
  std::size_t budget_;
  Model model_;
  std::size_t fires_ = 0;
};

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
