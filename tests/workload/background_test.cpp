#include "workload/background.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "obs/trace.hpp"

namespace tls::workload {
namespace {

net::FabricConfig fabric_config(int hosts) {
  net::FabricConfig c;
  c.num_hosts = hosts;
  return c;
}

TEST(Background, GeneratesPoissonFlows) {
  sim::Simulator s(1);
  net::Fabric fabric(s, fabric_config(4));
  BackgroundTrafficConfig cfg;
  cfg.flows_per_second = 50;
  cfg.mean_bytes = 256 * net::kKiB;
  BackgroundTraffic bg(s, fabric, cfg);
  bg.start();
  s.run(10 * sim::kSecond);
  bg.stop();
  s.run();
  // ~500 expected arrivals; allow generous slack.
  EXPECT_GT(bg.flows_started(), 350u);
  EXPECT_LT(bg.flows_started(), 700u);
  EXPECT_EQ(bg.flows_completed(), bg.flows_started());
  EXPECT_GT(bg.bytes_injected(), tls::net::Bytes{0});
  EXPECT_GT(bg.mean_fct_s(), 0);
}

TEST(Background, StopHaltsArrivals) {
  sim::Simulator s(1);
  net::Fabric fabric(s, fabric_config(3));
  BackgroundTraffic bg(s, fabric, {});
  bg.start();
  s.run(2 * sim::kSecond);
  bg.stop();
  std::uint64_t at_stop = bg.flows_started();
  s.run(20 * sim::kSecond);
  EXPECT_EQ(bg.flows_started(), at_stop);
  EXPECT_FALSE(bg.running());
}

TEST(Background, StartIsIdempotent) {
  sim::Simulator s(1);
  net::Fabric fabric(s, fabric_config(3));
  BackgroundTraffic bg(s, fabric, {});
  bg.start();
  bg.start();
  s.run(sim::kSecond);
  EXPECT_TRUE(bg.running());
}

TEST(Background, EndpointsAlwaysDistinct) {
  sim::Simulator s(9);
  net::FabricConfig fc = fabric_config(2);  // only one possible pair each way
  net::Fabric fabric(s, fc);
  BackgroundTrafficConfig cfg;
  cfg.flows_per_second = 100;
  cfg.mean_bytes = tls::net::Bytes{1024};
  BackgroundTraffic bg(s, fabric, cfg);
  bg.start();
  s.run(sim::kSecond);
  bg.stop();
  s.run();
  // With src==dst flows the fabric would throw; reaching here with
  // completions proves endpoints were distinct.
  EXPECT_GT(bg.flows_completed(), 0u);
}

TEST(Background, Validation) {
  sim::Simulator s(1);
  net::Fabric fabric(s, fabric_config(3));
  BackgroundTrafficConfig bad;
  bad.flows_per_second = 0;
  EXPECT_THROW(BackgroundTraffic(s, fabric, bad), std::invalid_argument);
  bad = {};
  bad.mean_bytes = tls::net::Bytes{0};
  EXPECT_THROW(BackgroundTraffic(s, fabric, bad), std::invalid_argument);
  net::Fabric single(s, fabric_config(1));
  EXPECT_THROW(BackgroundTraffic(s, single, {}), std::invalid_argument);
}

TEST(Background, DeterministicPerSeed) {
  auto count_at = [](std::uint64_t seed) {
    sim::Simulator s(seed);
    net::Fabric fabric(s, fabric_config(4));
    BackgroundTraffic bg(s, fabric, {});
    bg.start();
    s.run(5 * sim::kSecond);
    return bg.flows_started();
  };
  EXPECT_EQ(count_at(3), count_at(3));
}

/// Averages the egress queue wait that each chunk_dequeue carries.
class QueueWaitMean : public obs::TraceSink {
 public:
  void on_event(const obs::TraceEvent& e) override {
    if (e.kind != obs::EventKind::kChunkDequeue) return;
    sum_ += e.a;
    ++count_;
  }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

 private:
  std::int64_t sum_ = 0;
  std::int64_t count_ = 0;
};

TEST(Background, PoissonArrivalsMatchMM1MeanWait) {
  // Each egress of an ideal 2-host fabric as an M/M/1 queue. Every flow
  // goes from one host to the other, so 125,000 flows/s split into 62,500
  // per egress. Sizes are exponential with mean 10,000 B, E[S] = 8,000 ns
  // at 10 Gb/s, so each egress runs at rho = 0.5, and a flow is larger than
  // one 128 KiB chunk with probability e^-13: every flow is one chunk. The
  // mean wait before service is then rho / (1 - rho) * E[S] = 8,000 ns.
  net::FabricConfig fc = fabric_config(2);
  fc.tcp_weight_sigma = 0;
  fc.protocol_overhead = 1.0;
  fc.switch_latency = sim::Time{0};
  sim::Simulator s(1);
  obs::Tracer tracer(static_cast<std::uint32_t>(obs::Cat::kChunk));
  tracer.set_retain_events(false);
  QueueWaitMean waits;
  tracer.add_sink(&waits);
  s.set_tracer(&tracer);
  net::Fabric fabric(s, fc);
  BackgroundTrafficConfig cfg;
  cfg.flows_per_second = 125'000;
  cfg.mean_bytes = net::Bytes{10'000};
  BackgroundTraffic bg(s, fabric, cfg);
  bg.start();
  s.run(sim::from_millis(1600));
  bg.stop();
  s.run();
  EXPECT_EQ(bg.flows_completed(), bg.flows_started());
  EXPECT_NEAR(waits.mean() / 8'000.0, 1.0, 0.04);
}

}  // namespace
}  // namespace tls::workload
