#include "simcore/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace tls::sim {
namespace {

/// Deterministic 64-bit LCG for property tests (no std RNG, fixed streams).
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  }
};

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(tls::sim::Time{30}, [&] { fired.push_back(3); });
  q.schedule(tls::sim::Time{10}, [&] { fired.push_back(1); });
  q.schedule(tls::sim::Time{20}, [&] { fired.push_back(2); });
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    cb();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(tls::sim::Time{42}, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, PeekTimeReturnsEarliest) {
  EventQueue q;
  q.schedule(tls::sim::Time{100}, [] {});
  q.schedule(tls::sim::Time{50}, [] {});
  EXPECT_EQ(q.peek_time(), tls::sim::Time{50});
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  EventId id = q.schedule(tls::sim::Time{10}, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  EventId id = q.schedule(tls::sim::Time{10}, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  EventId id = q.schedule(tls::sim::Time{10}, [] {});
  q.pop().second();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{999}));
}

TEST(EventQueue, CancelledEventSkippedByPop) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(tls::sim::Time{10}, [&] { fired.push_back(1); });
  EventId mid = q.schedule(tls::sim::Time{20}, [&] { fired.push_back(2); });
  q.schedule(tls::sim::Time{30}, [&] { fired.push_back(3); });
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EventId a = q.schedule(tls::sim::Time{1}, [] {});
  q.schedule(tls::sim::Time{2}, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  bool fired = false;
  q.schedule(tls::sim::Time{1}, [&] { fired = true; });
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, ManyInterleavedScheduleCancelPop) {
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(tls::sim::Time{i % 17}, [&] { ++fired; }));
  }
  // Cancel every third event.
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    if (q.cancel(ids[i])) ++cancelled;
  }
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired + cancelled, 100);
  EXPECT_EQ(cancelled, 34);
}

TEST(EventQueue, CancelAfterClearReturnsFalse) {
  EventQueue q;
  EventId stale = q.schedule(tls::sim::Time{10}, [] {});
  q.clear();
  EXPECT_FALSE(q.cancel(stale));
  // A handle issued before clear() must never touch an event scheduled
  // after it, even though the post-clear event is the queue's only entry.
  bool fired = false;
  q.schedule(tls::sim::Time{5}, [&] { fired = true; });
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  q.pop().second();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, DoubleCancelAcrossClearStaysFalse) {
  EventQueue q;
  EventId id = q.schedule(tls::sim::Time{10}, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  q.clear();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, StatsCountActivity) {
  EventQueue q;
  EventId a = q.schedule(tls::sim::Time{1}, [] {});
  q.schedule(tls::sim::Time{2}, [] {});
  q.schedule(tls::sim::Time{3}, [] {});
  q.cancel(a);
  q.pop();
  q.pop();
  EXPECT_EQ(q.stats().scheduled, 3u);
  EXPECT_EQ(q.stats().cancelled, 1u);
  EXPECT_EQ(q.stats().popped, 2u);
  EXPECT_EQ(q.stats().tombstones_skipped, 1u);
}

TEST(EventQueue, EqualTimesFireInSchedulingOrderAcrossBoundaries) {
  // Property: simultaneous events fire in scheduling order however they
  // are interleaved with events at other times. Each of 500 draws of a
  // random multiple of 4096 out to ~2^26 schedules two events there, in
  // no time order, so a repeated draw piles more events onto a time that
  // is already pending; within each time the pop order must still be the
  // global scheduling order.
  EventQueue q;
  Lcg rng{12345};
  std::vector<std::pair<Time, int>> fired;
  int k = 0;
  for (int rep = 0; rep < 500; ++rep) {
    Time t = static_cast<Time>(rng.next() % 16384) * 4096;
    // Two coincident events per draw; repeated draws of the same t pile
    // more on, all of which must preserve global scheduling order.
    for (int dup = 0; dup < 2; ++dup) {
      int token = k++;
      q.schedule(t, [&fired, t, token] { fired.emplace_back(t, token); });
    }
  }
  while (!q.empty()) q.pop().second();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(k));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second)
          << "equal-time events fired out of scheduling order at t="
          << fired[i].first;
    }
  }
}

TEST(EventQueue, MatchesReferenceModelUnderRandomMix) {
  // Differential test against a trivially-correct reference: an ordered
  // set of (time, token) pairs. Every schedule/cancel/pop result — cancel
  // return values, pop order, peek_time, size — must agree exactly.
  EventQueue q;
  Lcg rng{99};
  struct Ref {
    Time at;
    bool live;
    EventId id;
  };
  std::vector<Ref> all;
  std::set<std::pair<Time, std::size_t>> pending;
  std::size_t fired_token = 0;
  bool fired_flag = false;
  Time horizon = tls::sim::Time{0};
  for (int op = 0; op < 20000; ++op) {
    std::uint64_t r = rng.next() % 100;
    if (r < 50 || pending.empty()) {
      Time t = horizon + static_cast<Time>(rng.next() % (1u << 20));
      std::size_t token = all.size();
      EventId id = q.schedule(t, [&fired_flag, &fired_token, token] {
        fired_flag = true;
        fired_token = token;
      });
      all.push_back({t, true, id});
      pending.insert({t, token});
    } else if (r < 75) {
      std::size_t token = rng.next() % all.size();
      bool expect = all[token].live;
      EXPECT_EQ(q.cancel(all[token].id), expect);
      if (expect) {
        all[token].live = false;
        pending.erase({all[token].at, token});
      }
    } else {
      auto it = pending.begin();
      ASSERT_EQ(q.peek_time(), it->first);
      // A bound just before the earliest event pops nothing and keeps it.
      Time t = kTimeMin;
      EventQueue::Callback cb;
      ASSERT_FALSE(q.pop_due(it->first - Time{1}, t, cb));
      ASSERT_FALSE(cb);
      ASSERT_EQ(q.size(), pending.size());
      fired_flag = false;
      if (r % 2 == 0) {
        ASSERT_TRUE(q.pop_due(it->first, t, cb));
      } else {
        std::tie(t, cb) = q.pop();
      }
      cb();
      ASSERT_TRUE(fired_flag);
      ASSERT_EQ(t, it->first);
      ASSERT_EQ(fired_token, it->second);
      all[it->second].live = false;
      horizon = t;
      pending.erase(it);
    }
    ASSERT_EQ(q.size(), pending.size());
  }
}

TEST(EventQueue, DenseBurstsAcrossSparseGapsMatchReference) {
  // Property: events pop in exact (time, scheduling) order when bursts of
  // 100 near-coincident events, scheduled out of time order, arrive
  // between far-future singletons and interleave with pops. Every pop is
  // checked against an ordered-set reference.
  EventQueue q;
  Lcg rng{4242};
  std::set<std::pair<Time, std::size_t>> pending;
  std::size_t token = 0;
  std::size_t fired_token = 0;
  Time horizon = tls::sim::Time{0};
  auto sched = [&](Time t) {
    std::size_t tok = token++;
    q.schedule(t, [&fired_token, tok] { fired_token = tok; });
    pending.insert({t, tok});
  };
  for (int round = 0; round < 200; ++round) {
    std::uint64_t roll = rng.next() % 3;
    if (roll == 0) {
      // Dense burst: 100 events within a 512-tick span — far denser than
      // any sane bucket width once the queue has seen sparse gaps.
      Time base = horizon + static_cast<Time>(rng.next() % 1024);
      for (int i = 0; i < 100; ++i) {
        sched(base + static_cast<Time>(rng.next() % 512));
      }
    } else if (roll == 1) {
      // Sparse far-future singleton, widening the observed spacing.
      sched(horizon + static_cast<Time>(1 << 22) +
            static_cast<Time>(rng.next() % (1u << 24)));
    } else {
      for (int i = 0; i < 40 && !pending.empty(); ++i) {
        auto it = pending.begin();
        auto [t, cb] = q.pop();
        cb();
        ASSERT_EQ(t, it->first);
        ASSERT_EQ(fired_token, it->second);
        horizon = t;
        pending.erase(it);
      }
    }
    ASSERT_EQ(q.size(), pending.size());
  }
  while (!pending.empty()) {
    auto it = pending.begin();
    auto [t, cb] = q.pop();
    cb();
    ASSERT_EQ(t, it->first);
    ASSERT_EQ(fired_token, it->second);
    pending.erase(it);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MillionScheduleCancelSubQuadratic) {
  // The seed binary-heap queue cancelled with an O(n) heap scan; a million
  // schedule+cancel pairs against a large pending set would take hours.
  // The liveness-table queue must finish well inside the CI budget, with
  // every handle answering exactly once.
  auto wall_start = std::chrono::steady_clock::now();
  EventQueue q;
  constexpr std::size_t kN = 1'000'000;
  Lcg rng{7};
  std::vector<EventId> ids;
  ids.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ids.push_back(q.schedule(static_cast<Time>(rng.next() % (1u << 30)),
                             [] {}));
  }
  // First cancel of every even handle must succeed, the second must not.
  std::size_t bad = 0;
  for (std::size_t i = 0; i < kN; i += 2) {
    if (!q.cancel(ids[i])) ++bad;
  }
  for (std::size_t i = 0; i < kN; i += 2) {
    if (q.cancel(ids[i])) ++bad;
  }
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(q.size(), kN / 2);
  // Survivors pop in nondecreasing time order and their handles die.
  Time last = kTimeMin;
  std::size_t popped = 0;
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    if (t < last) ++bad;
    last = t;
    ++popped;
  }
  EXPECT_EQ(bad, 0u);
  EXPECT_EQ(popped, kN / 2);
  for (std::size_t i = 1; i < kN; i += 200'001) {
    EXPECT_FALSE(q.cancel(ids[i]));
  }
  EXPECT_EQ(q.stats().scheduled, kN);
  EXPECT_EQ(q.stats().cancelled, kN / 2);
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  // Generous even for sanitizer builds on one core; the quadratic seed
  // behavior would overshoot this by orders of magnitude.
  EXPECT_LT(secs, 120.0);
}

TEST(EventQueue, StorageFollowsPendingEventsNotDeliveredOnes) {
  // Property: the queue's storage is bounded by the events pending at its
  // peak, not by the events it has delivered. After a lull (20 events 1 s
  // apart, two of them fired), a 200k-event chain spaced 1 us apart runs
  // while 18 far events stay pending, so at most 20 events are ever
  // pending at once. Storage that kept delivered entries, or a liveness
  // table indexed by seq and pinned by the oldest far event, would span
  // all 200k events.
  EventQueue q;
  for (std::int64_t i = 0; i < 20; ++i) q.schedule(i * kSecond, [] {});
  q.pop().second();
  q.pop().second();
  constexpr int kChain = 200'000;
  q.schedule(kSecond + kMicrosecond, [] {});
  Time t;
  for (int i = 0; i < kChain; ++i) {
    auto [at, cb] = q.pop();
    ASSERT_LT(at, 2 * kSecond);
    cb();
    t = at;
    if (i + 1 < kChain) q.schedule(t + kMicrosecond, [] {});
  }
  EXPECT_EQ(q.size(), 18u);
  EventQueue::Footprint fp = q.footprint();
  EXPECT_LE(fp.heap_capacity, 128u);
  EXPECT_LE(fp.slots, 20u);
  // Each chain event is scheduled 1 us after the pop before it, so the
  // chain runs through a delay lane, whose ring never holds more than the
  // one pending chain event.
  EXPECT_GT(fp.lane_capacity, 0u);
  EXPECT_LE(fp.lane_capacity, 16u);

  // A recurring-delay chain 40 deep: 40 events 1 us apart, each popped one
  // rescheduled 40 us after its pop, for 200k pops. Its lane holds the 40
  // pending chain events (a 64-entry ring) however many pass through it.
  for (std::int64_t k = 1; k <= 40; ++k) {
    q.schedule(t + k * kMicrosecond, [] {});
  }
  for (int i = 0; i < kChain; ++i) {
    auto [at, cb] = q.pop();
    ASSERT_LT(at, 2 * kSecond);
    cb();
    q.schedule(at + 40 * kMicrosecond, [] {});
  }
  EXPECT_EQ(q.size(), 58u);
  fp = q.footprint();
  EXPECT_LE(fp.heap_capacity, 128u);
  EXPECT_LE(fp.slots, 64u);
  EXPECT_LE(fp.lane_capacity, 16u + 64u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_LT(q.pop().first, 2 * kSecond);
  }
  // The far events still fire, in order.
  for (std::int64_t i = 2; i < 20; ++i) EXPECT_EQ(q.pop().first, i * kSecond);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueCallback, SizeBoundIsACompileTimeConstraint) {
  auto fits = [words = std::array<std::uint64_t, 8>{}] { (void)words; };
  auto too_big = [words = std::array<std::uint64_t, 9>{}] { (void)words; };
  static_assert(sizeof(fits) == 64);
  static_assert(sizeof(too_big) == 72);
  static_assert(std::is_convertible_v<decltype(fits), EventQueue::Callback>);
  static_assert(
      !std::is_convertible_v<decltype(too_big), EventQueue::Callback>);
  static_assert(
      !std::is_constructible_v<EventQueue::Callback, decltype(too_big)>);
  static_assert(!std::is_copy_constructible_v<EventQueue::Callback>);
  EventQueue q;
  q.schedule(Time{1}, fits);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueCallback, MoveOnlyCaptureFires) {
  EventQueue q;
  int got = 0;
  auto box = std::make_unique<int>(7);
  q.schedule(Time{1}, [&got, box = std::move(box)] { got = *box; });
  q.pop().second();
  EXPECT_EQ(got, 7);
}

/// Capture that counts how many times the object owning its token is
/// destroyed; a moved-from copy gives up the token.
struct CountedCapture {
  explicit CountedCapture(int* destroyed) : destroyed_(destroyed) {}
  CountedCapture(CountedCapture&& other) noexcept
      : destroyed_(std::exchange(other.destroyed_, nullptr)) {}
  CountedCapture& operator=(CountedCapture&&) = delete;
  ~CountedCapture() {
    if (destroyed_ != nullptr) ++*destroyed_;
  }
  void operator()() const {}

 private:
  int* destroyed_;
};

TEST(EventQueueCallback, CaptureDestroyedOnceWhetherFiredCancelledOrCleared) {
  int fired = 0;
  int cancelled = 0;
  int cleared = 0;
  {
    EventQueue q;
    q.schedule(Time{1}, CountedCapture{&fired});
    EventId id = q.schedule(Time{2}, CountedCapture{&cancelled});
    q.schedule(Time{3}, CountedCapture{&cleared});
    q.pop().second();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.cancel(id));
    EXPECT_EQ(cancelled, 1);
    q.clear();
    EXPECT_EQ(cleared, 1);
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(cancelled, 1);
  EXPECT_EQ(cleared, 1);

  // The same with many events, so slots are reused and the slot table
  // grows (moving every stored callback) while heap entries move and
  // tombstones are discarded.
  int destroyed = 0;
  constexpr int kEvents = 3000;
  {
    EventQueue q;
    Lcg rng{31};
    std::vector<EventId> ids;
    for (int i = 0; i < kEvents; ++i) {
      Time t = i % 4 == 0 ? static_cast<Time>(rng.next() % (1u << 30))
                          : static_cast<Time>(rng.next() % 4096);
      ids.push_back(q.schedule(t, CountedCapture{&destroyed}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
    EXPECT_EQ(destroyed, kEvents / 3);
    for (int i = 0; i < kEvents / 3; ++i) q.pop().second();
    EXPECT_EQ(destroyed, 2 * kEvents / 3);
    q.clear();
    EXPECT_EQ(destroyed, kEvents);
  }
  EXPECT_EQ(destroyed, kEvents);
}

/// Capture whose copy throws; moves do not, as InlineCallback requires.
struct ThrowingCopy {
  ThrowingCopy() = default;
  ThrowingCopy(const ThrowingCopy&) { throw std::runtime_error("copy"); }
  ThrowingCopy(ThrowingCopy&&) noexcept = default;
  void operator()() const {}
};

TEST(EventQueueCallback, ThrowingCopyLeavesItsSlotFreeAndEmpty) {
  // The callback is built in its slot; a copy that throws there must leave
  // the slot free and empty, whether the slot was reused or just added.
  EventQueue q;
  const ThrowingCopy capture;
  EXPECT_THROW(q.schedule(Time{1}, capture), std::runtime_error);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.footprint().slots, 1u);
  int destroyed = 0;
  q.schedule(Time{2}, CountedCapture{&destroyed});
  EXPECT_EQ(q.footprint().slots, 1u);
  q.pop().second();
  EXPECT_EQ(destroyed, 1);
  EXPECT_THROW(q.schedule(Time{3}, capture), std::runtime_error);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().scheduled, 1u);
  bool fired = false;
  q.schedule(Time{4}, [&fired] { fired = true; });
  EXPECT_EQ(q.footprint().slots, 1u);
  q.pop().second();
  EXPECT_TRUE(fired);
}

TEST(EventQueueDeathTest, NullCallbackIsRejected) {
  EventQueue q;
  std::function<void()> empty;
  EXPECT_DEATH(q.schedule(Time{1}, empty), "scheduling a null callback");
  void (*null_fn)() = nullptr;
  EXPECT_DEATH(q.schedule(Time{1}, null_fn), "scheduling a null callback");
}

}  // namespace
}  // namespace tls::sim
