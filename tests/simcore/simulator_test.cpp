#include "simcore/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <vector>

namespace tls::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), tls::sim::Time{0});
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, AdvancesToEventTimes) {
  Simulator s;
  std::vector<Time> seen;
  s.schedule_at(tls::sim::Time{100}, [&] { seen.push_back(s.now()); });
  s.schedule_after(tls::sim::Time{50}, [&] { seen.push_back(s.now()); });
  s.run();
  EXPECT_EQ(seen, (std::vector<Time>{Time{50}, Time{100}}));
  EXPECT_EQ(s.now(), tls::sim::Time{100});
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator s;
  int fired = 0;
  s.schedule_at(tls::sim::Time{10}, [&] { ++fired; });
  s.schedule_at(tls::sim::Time{100}, [&] { ++fired; });
  std::uint64_t n = s.run(tls::sim::Time{50});
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), tls::sim::Time{50});  // clock advanced to the bound
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventExactlyAtBoundFires) {
  Simulator s;
  bool fired = false;
  s.schedule_at(tls::sim::Time{50}, [&] { fired = true; });
  s.run(tls::sim::Time{50});
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsScheduledDuringRunAreProcessed) {
  Simulator s;
  std::vector<Time> seen;
  s.schedule_at(tls::sim::Time{10}, [&] {
    seen.push_back(s.now());
    s.schedule_after(tls::sim::Time{5}, [&] { seen.push_back(s.now()); });
  });
  s.run();
  EXPECT_EQ(seen, (std::vector<Time>{Time{10}, Time{15}}));
}

TEST(Simulator, StepProcessesOneEvent) {
  Simulator s;
  int fired = 0;
  s.schedule_at(tls::sim::Time{1}, [&] { ++fired; });
  s.schedule_at(tls::sim::Time{2}, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelledEventDoesNotFire) {
  Simulator s;
  bool fired = false;
  EventId id = s.schedule_at(tls::sim::Time{10}, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, DispatchedCounts) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_at(tls::sim::Time{i}, [] {});
  s.run();
  EXPECT_EQ(s.dispatched(), 5u);
}

TEST(Simulator, EventLimitThrows) {
  Simulator s;
  s.set_event_limit(10);
  // Self-rescheduling event would run forever without the limit.
  std::function<void()> loop = [&] { s.schedule_after(tls::sim::Time{1}, loop); };
  s.schedule_after(tls::sim::Time{1}, loop);
  EXPECT_THROW(s.run(), std::runtime_error);
}

TEST(Simulator, StepHonoursEventLimit) {
  Simulator s;
  s.set_event_limit(2);
  int fired = 0;
  for (int i = 0; i < 3; ++i) s.schedule_at(Time{i}, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_TRUE(s.step());
  EXPECT_THROW(s.step(), std::runtime_error);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.dispatched(), 2u);
}

TEST(PeriodicTimer, TicksAtPeriod) {
  Simulator s;
  std::vector<Time> ticks;
  PeriodicTimer t(s, Time{10}, [&] { ticks.push_back(s.now()); });
  t.start();
  s.run(tls::sim::Time{35});
  EXPECT_EQ(ticks, (std::vector<Time>{Time{10}, Time{20}, Time{30}}));
}

TEST(PeriodicTimer, PhaseControlsFirstTick) {
  Simulator s;
  std::vector<Time> ticks;
  PeriodicTimer t(s, Time{10}, [&] { ticks.push_back(s.now()); });
  t.start(/*phase=*/tls::sim::Time{3});
  s.run(tls::sim::Time{25});
  EXPECT_EQ(ticks, (std::vector<Time>{Time{3}, Time{13}, Time{23}}));
}

TEST(PeriodicTimer, StopCancelsFutureTicks) {
  Simulator s;
  int ticks = 0;
  PeriodicTimer t(s, Time{10}, [&] { ++ticks; });
  t.start();
  s.run(tls::sim::Time{15});
  t.stop();
  s.run(tls::sim::Time{100});
  EXPECT_EQ(ticks, 1);
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTimer, StopFromWithinCallback) {
  Simulator s;
  int ticks = 0;
  PeriodicTimer t(s, Time{10}, [&] {
    if (++ticks == 2) t.stop();
  });
  t.start();
  s.run(tls::sim::Time{200});
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicTimer, RestartAfterStop) {
  Simulator s;
  int ticks = 0;
  PeriodicTimer t(s, Time{10}, [&] { ++ticks; });
  t.start();
  s.run(tls::sim::Time{10});
  t.stop();
  t.start();
  s.run(tls::sim::Time{20});
  EXPECT_EQ(ticks, 2);
}

TEST(PeriodicTimer, SetPeriodTakesEffectOnRearm) {
  Simulator s;
  std::vector<Time> ticks;
  PeriodicTimer t(s, Time{10}, [&] { ticks.push_back(s.now()); });
  t.start();
  s.run(tls::sim::Time{10});
  // The tick at t=10 already re-armed with the old period, so the change
  // applies from the tick after next.
  t.set_period(tls::sim::Time{5});
  s.run(tls::sim::Time{30});
  EXPECT_EQ(ticks, (std::vector<Time>{Time{10}, Time{20}, Time{25}, Time{30}}));
}

}  // namespace
}  // namespace tls::sim
