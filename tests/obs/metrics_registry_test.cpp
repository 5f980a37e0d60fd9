// Unit tests for the metrics registry: log2 histogram bucketing, the
// bucket-by-bucket merge used when aggregating per-run registries, and the
// deterministic long-format timeseries CSV.
#include "obs/metrics_registry.hpp"

#include <gtest/gtest.h>

namespace tls::obs {
namespace {

TEST(Histogram, RecordsBasicStats) {
  Histogram h;
  h.record(1);
  h.record(5);
  h.record(100);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 106);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 3.0);
}

TEST(Histogram, EmptyHistogramIsZeroes) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, Log2Bucketing) {
  Histogram h;
  h.record(0);  // bucket 0 (zeros and ones)
  h.record(1);  // bucket 0
  h.record(2);  // bucket 2: [2, 4)
  h.record(3);  // bucket 2
  h.record(4);  // bucket 3: [4, 8)
  h.record(1023);  // bucket 10: [512, 1024)
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_EQ(h.bucket(2), 2);
  EXPECT_EQ(h.bucket(3), 1);
  EXPECT_EQ(h.bucket(10), 1);
}

TEST(Histogram, NegativeSamplesClampToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.sum(), 0);
}

TEST(Registry, InstrumentsAreKeyedByAllDimensions) {
  Registry r;
  r.counter("c", 0, -1, -1).add(1);
  r.counter("c", 1, -1, -1).add(2);
  r.counter("c", 0, -1, 3).add(4);
  EXPECT_EQ(r.counters().size(), 3u);
  EXPECT_EQ(r.counters().at(MetricKey{"c", 0, -1, -1}).value(), 1);
  EXPECT_EQ(r.counters().at(MetricKey{"c", 1, -1, -1}).value(), 2);
  EXPECT_EQ(r.counters().at(MetricKey{"c", 0, -1, 3}).value(), 4);
}

TEST(Registry, TimeseriesCsvIsExactAndOrdered) {
  Registry r;
  // Touch instruments out of key order; the map sorts the export.
  r.counter("z_count", 1, -1, 0).add(5);
  r.counter("a_count", 2, -1, -1).add(3);
  r.gauge("depth", 0, -1, -1).set(1.5);
  r.histogram("wait_ns", -1, 4, -1).record(10);
  r.histogram("wait_ns", -1, 4, -1).record(20);
  r.record(tls::sim::Time{100}, "depth", 0, -1, -1, 1.5);
  r.record(tls::sim::Time{200}, "depth", 0, -1, -1, 2.0);
  EXPECT_EQ(r.timeseries_csv(tls::sim::Time{1000}),
            "t_ns,metric,kind,host,job,band,value\n"
            "100,depth,sample,0,-1,-1,1.500000\n"
            "200,depth,sample,0,-1,-1,2.000000\n"
            "1000,a_count,counter,2,-1,-1,3\n"
            "1000,z_count,counter,1,-1,0,5\n"
            "1000,depth,gauge,0,-1,-1,1.500000\n"
            "1000,wait_ns.count,hist,-1,4,-1,2\n"
            "1000,wait_ns.sum,hist,-1,4,-1,30\n"
            "1000,wait_ns.min,hist,-1,4,-1,10\n"
            "1000,wait_ns.max,hist,-1,4,-1,20\n"
            // All three quantile ranks (floor(q*2) clamped to 1) land in
            // the 10-sample's bucket [8,16); interpolation spans lo=10
            // (clamped to min) to hi=15 with one sample, so pos/count = 1.
            "1000,wait_ns.p50,hist,-1,4,-1,15\n"
            "1000,wait_ns.p95,hist,-1,4,-1,15\n"
            "1000,wait_ns.p99,hist,-1,4,-1,15\n");
}

TEST(Histogram, QuantileInterpolatesWithinBucket) {
  // 1..8 across four buckets: rank arithmetic and the within-bucket
  // linear interpolation are exact, hand-computed values.
  Histogram h;
  for (std::int64_t v = 1; v <= 8; ++v) h.record(v);
  // rank 4 lands in bucket [4,8) at position 1 of 4: 4 + 3*1/4 = 4.
  EXPECT_EQ(h.quantile(0.5), 4);
  // rank 7 is position 4 of 4 in the same bucket: 4 + 3*4/4 = 7.
  EXPECT_EQ(h.quantile(0.95), 7);
  EXPECT_EQ(h.quantile(0.99), 7);
  // Extremes clamp to the observed min and max, not bucket edges.
  EXPECT_EQ(h.quantile(0.0), 1);
  EXPECT_EQ(h.quantile(1.0), 8);

  // Identical samples collapse lo == hi: every quantile is the value.
  Histogram flat;
  for (int i = 0; i < 100; ++i) flat.record(10);
  EXPECT_EQ(flat.quantile(0.5), 10);
  EXPECT_EQ(flat.quantile(0.99), 10);

  Histogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0);
}

}  // namespace
}  // namespace tls::obs
