#include "simcore/time.hpp"

#include <gtest/gtest.h>

namespace tls::sim {
namespace {

TEST(Time, FromSecondsRoundTrips) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(3.25)), 3.25);
}

TEST(Time, FromMillisMicros) {
  EXPECT_EQ(from_millis(1.0), kMillisecond);
  EXPECT_EQ(from_micros(1.0), kMicrosecond);
  EXPECT_EQ(from_millis(1.5), tls::sim::Time{1'500'000});
}

TEST(Time, RoundsToNearestNanosecond) {
  EXPECT_EQ(from_seconds(1e-9 * 0.6), tls::sim::Time{1});
  EXPECT_EQ(from_seconds(1e-9 * 0.4), tls::sim::Time{0});
}

TEST(Time, NegativeDurationsPreserved) {
  EXPECT_EQ(from_seconds(-1.0), -kSecond);
  EXPECT_DOUBLE_EQ(to_seconds(-kMillisecond), -0.001);
}

TEST(Time, FormatPicksUnit) {
  EXPECT_EQ(format_time(2 * kSecond), "2s");
  EXPECT_EQ(format_time(37 * kMillisecond + kMillisecond / 2), "37.5ms");
  EXPECT_EQ(format_time(tls::sim::Time{800}), "800ns");
  EXPECT_EQ(format_time(5 * kMicrosecond), "5us");
}

TEST(Time, ToMillis) { EXPECT_DOUBLE_EQ(to_millis(tls::sim::Time{1'500'000}), 1.5); }

}  // namespace
}  // namespace tls::sim
