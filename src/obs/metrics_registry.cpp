#include "obs/metrics_registry.hpp"

#include <cstdio>
#include <sstream>

namespace tls::obs {

namespace {

/// log2 bucket index: 0 for samples <= 1, else 1 + floor(log2(sample)),
/// clamped to the last bucket. Negative samples clamp to bucket 0.
int bucket_index(std::int64_t sample) {
  if (sample <= 1) return 0;
  int idx = 0;
  std::uint64_t v = static_cast<std::uint64_t>(sample);
  while (v > 1) {
    v >>= 1u;
    ++idx;
  }
  ++idx;  // [2^(i-1), 2^i) lands in bucket i
  if (idx >= Histogram::kBuckets) idx = Histogram::kBuckets - 1;
  return idx;
}

/// Upper edge of bucket i (inclusive bound for quantile reporting).
std::int64_t bucket_upper(int i) {
  if (i <= 0) return 1;
  if (i >= 63) return INT64_MAX;
  return (std::int64_t{1} << i) - 1;
}

/// Fixed-precision decimal rendering so CSV bytes are reproducible.
std::string fmt_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

void Histogram::record(std::int64_t sample) {
  if (sample < 0) sample = 0;
  ++buckets_[bucket_index(sample)];
  if (count_ == 0 || sample < min_) min_ = sample;
  if (sample > max_) max_ = sample;
  ++count_;
  sum_ += sample;
}

std::int64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::int64_t rank = static_cast<std::int64_t>(q * static_cast<double>(count_));
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  std::int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (seen + buckets_[i] < rank) {
      seen += buckets_[i];
      continue;
    }
    // Interpolate by rank within the containing bucket [lo, hi], with the
    // edges clamped to the observed extremes so a single-sample bucket
    // reports the real range, not the power-of-two envelope.
    std::int64_t lo = i == 0 ? 0 : (std::int64_t{1} << (i - 1));
    std::int64_t hi = bucket_upper(i);
    if (lo < min_) lo = min_;
    if (hi > max_) hi = max_;
    if (hi < lo) hi = lo;
    std::int64_t pos = rank - seen;  // 1..buckets_[i]
    return lo + static_cast<std::int64_t>(static_cast<__int128>(hi - lo) *
                                          pos / buckets_[i]);
  }
  return max_;
}

Counter& Registry::counter(const std::string& name, std::int32_t host,
                           std::int32_t job, std::int32_t band) {
  return counters_[MetricKey{name, host, job, band}];
}

Gauge& Registry::gauge(const std::string& name, std::int32_t host,
                       std::int32_t job, std::int32_t band) {
  return gauges_[MetricKey{name, host, job, band}];
}

Histogram& Registry::histogram(const std::string& name, std::int32_t host,
                               std::int32_t job, std::int32_t band) {
  return histograms_[MetricKey{name, host, job, band}];
}

void Registry::record(sim::Time at, const std::string& name,
                      std::int32_t host, std::int32_t job, std::int32_t band,
                      double value) {
  samples_.push_back(SamplePoint{at, MetricKey{name, host, job, band}, value});
}

std::string Registry::timeseries_csv(sim::Time end) const {
  std::ostringstream os;
  os << "t_ns,metric,kind,host,job,band,value\n";
  auto row = [&os](sim::Time t, const MetricKey& k, const char* kind,
                   const std::string& suffix, const std::string& value) {
    os << t << ',' << k.name << suffix << ',' << kind << ',' << k.host << ','
       << k.job << ',' << k.band << ',' << value << '\n';
  };
  // Timeseries points first, in emission order (already sim-time sorted
  // because sampling happens on the event loop).
  for (const SamplePoint& p : samples_) {
    row(p.at, p.key, "sample", "", fmt_value(p.value));
  }
  for (const auto& [key, c] : counters_) {
    row(end, key, "counter", "", std::to_string(c.value()));
  }
  for (const auto& [key, g] : gauges_) {
    row(end, key, "gauge", "", fmt_value(g.value()));
  }
  for (const auto& [key, h] : histograms_) {
    row(end, key, "hist", ".count", std::to_string(h.count()));
    row(end, key, "hist", ".sum", std::to_string(h.sum()));
    row(end, key, "hist", ".min", std::to_string(h.min()));
    row(end, key, "hist", ".max", std::to_string(h.max()));
    row(end, key, "hist", ".p50", std::to_string(h.quantile(0.5)));
    row(end, key, "hist", ".p95", std::to_string(h.quantile(0.95)));
    row(end, key, "hist", ".p99", std::to_string(h.quantile(0.99)));
  }
  return os.str();
}

}  // namespace tls::obs
