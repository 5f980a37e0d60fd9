// tls::obs — named metrics sampled on the simulation clock.
//
// A Registry owns counters, gauges, and log2-bucketed histograms keyed by
// (name, host, job, band), plus a long-format timeseries of periodic
// samples. Everything lives in std::map so export order — and therefore the
// bytes of the CSV files — is deterministic. Values are updated from trace
// emission sites (obs::Tracer) and from periodic sampling timers driven by
// sim::PeriodicTimer; there is no host-clock anywhere in this module.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "simcore/time.hpp"

namespace tls::obs {

/// Identifies one instrument: a metric name plus the entity it describes.
/// -1 in host/job/band means "not applicable" for that dimension.
struct MetricKey {
  std::string name;
  std::int32_t host = -1;
  std::int32_t job = -1;
  std::int32_t band = -1;

  bool operator<(const MetricKey& o) const {
    if (name != o.name) return name < o.name;
    if (host != o.host) return host < o.host;
    if (job != o.job) return job < o.job;
    return band < o.band;
  }
  bool operator==(const MetricKey& o) const {
    return name == o.name && host == o.host && job == o.job && band == o.band;
  }
};

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::int64_t delta) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Last-write-wins floating-point metric.
class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Power-of-two bucketed histogram for non-negative integer samples
/// (durations in ns, sizes in bytes). Bucket i counts samples in
/// [2^(i-1), 2^i); bucket 0 counts zeros and ones.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::int64_t sample);

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  std::int64_t bucket(int i) const { return buckets_[i]; }

  /// Rank-interpolated quantile, `q` in [0,1]: finds the bucket holding
  /// the sample of rank q * count (truncated, clamped to [1, count]), then
  /// interpolates linearly by rank across the bucket's span (edges clamped
  /// to the observed min/max), so quantile estimates move smoothly instead
  /// of jumping between power-of-two edges. Integer arithmetic throughout —
  /// the result is byte-stable. 0 when empty.
  std::int64_t quantile(double q) const;

 private:
  std::int64_t buckets_[kBuckets] = {};
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// One periodic sample in the long-format timeseries.
struct SamplePoint {
  sim::Time at{};
  MetricKey key;
  double value = 0.0;
};

/// Deterministic container for a simulation's metrics. Instruments are
/// created on first touch; lookups return stable references (std::map never
/// invalidates on insert).
class Registry {
 public:
  Counter& counter(const std::string& name, std::int32_t host,
                   std::int32_t job, std::int32_t band);
  Gauge& gauge(const std::string& name, std::int32_t host, std::int32_t job,
               std::int32_t band);
  Histogram& histogram(const std::string& name, std::int32_t host,
                       std::int32_t job, std::int32_t band);

  /// Appends a timeseries point (periodic sampling on the sim clock).
  void record(sim::Time at, const std::string& name, std::int32_t host,
              std::int32_t job, std::int32_t band, double value);

  const std::map<MetricKey, Counter>& counters() const { return counters_; }
  const std::map<MetricKey, Gauge>& gauges() const { return gauges_; }
  const std::map<MetricKey, Histogram>& histograms() const {
    return histograms_;
  }
  const std::vector<SamplePoint>& samples() const { return samples_; }

  /// Tidy long-format CSV: one row per final counter/gauge/histogram
  /// summary and one per timeseries point. Columns:
  ///   t_ns,metric,kind,host,job,band,value
  /// Summaries use t_ns = `end` (the final simulation time); histogram
  /// summaries expand to count/sum/min/max/p50/p95/p99 rows (quantiles
  /// rank-interpolated within their log2 bucket). Byte-identical across
  /// runs by construction (map order + fixed numeric formatting).
  std::string timeseries_csv(sim::Time end) const;

 private:
  std::map<MetricKey, Counter> counters_;
  std::map<MetricKey, Gauge> gauges_;
  std::map<MetricKey, Histogram> histograms_;
  std::vector<SamplePoint> samples_;
};

}  // namespace tls::obs
