#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace tls::net {
namespace {

FabricConfig ideal(int hosts) {
  FabricConfig c;
  c.num_hosts = hosts;
  c.tcp_weight_sigma = 0;     // deterministic
  c.protocol_overhead = 1.0;  // no framing inflation
  c.switch_latency = tls::sim::Time{0};
  return c;
}

TEST(Fabric, SingleFlowTakesSerializationTime) {
  // A flow alone on an ideal fabric has a closed-form completion time,
  // exact in integer ns. Its chunks c_1..c_n are 128 KiB, the last one
  // partial, and t(c) = transmit_time(c, 10 Gb/s): 104,858 ns for a full
  // chunk. Egress serializes each chunk, the switch adds latency L, and
  // ingress serializes it again at the same rate.
  //  - Window 4 (the default): egress never waits for a delivery, and
  //    ingress runs one largest chunk behind it, so the flow ends at
  //    sum t(c_i) + max t(c_i) + L.
  //  - Window 1: each chunk is sent only once the one before it has been
  //    delivered, so the flow ends at 2 * sum t(c_i) + n * L.
  struct Case {
    std::int64_t bytes;
    int window;
    sim::Time latency;
    sim::Time end;
  };
  const sim::Time l = 5 * sim::kMicrosecond;
  const Case cases[] = {
      // 9 full chunks and a 70,352 B one (56,282 ns): sum 1,000,004 ns.
      {1'250'000, 4, sim::Time{0}, sim::Time{1'104'862}},
      {1'250'000, 4, l, sim::Time{1'109'862}},
      {1'250'000, 1, sim::Time{0}, sim::Time{2'000'008}},
      {1'250'000, 1, l, sim::Time{2'050'008}},
      // One chunk of 1,000 B (800 ns): both forms give 2 t + L.
      {1'000, 4, l, sim::Time{6'600}},
      {1'000, 1, l, sim::Time{6'600}},
      // Two full chunks, no partial one: sum 209,716 ns.
      {262'144, 4, l, sim::Time{319'574}},
      {262'144, 1, l, sim::Time{429'432}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << c.bytes << " B, window " << c.window
                                    << ", latency " << c.latency);
    sim::Simulator s(1);
    FabricConfig config = ideal(2);
    config.flow_window = c.window;
    config.switch_latency = c.latency;
    Fabric fab(s, config);
    sim::Time done = tls::sim::Time{-1};
    FlowSpec f;
    f.src = tls::net::HostId{0};
    f.dst = tls::net::HostId{1};
    f.bytes = tls::net::Bytes{c.bytes};
    fab.start_flow(f, [&](const FlowRecord& r) { done = r.end; });
    s.run();
    EXPECT_EQ(done, c.end);
  }
}

TEST(Fabric, ZeroByteFlowCompletesAsync) {
  sim::Simulator s(1);
  Fabric fab(s, ideal(2));
  bool done = false;
  FlowSpec f;
  f.src = tls::net::HostId{0};
  f.dst = tls::net::HostId{1};
  f.bytes = tls::net::Bytes{0};
  fab.start_flow(f, [&](const FlowRecord&) { done = true; });
  EXPECT_FALSE(done);  // never synchronous
  s.run();
  EXPECT_TRUE(done);
}

TEST(Fabric, RejectsBadEndpoints) {
  sim::Simulator s(1);
  Fabric fab(s, ideal(2));
  FlowSpec f;
  f.src = tls::net::HostId{0};
  f.dst = tls::net::HostId{5};
  f.bytes = tls::net::Bytes{1};
  EXPECT_THROW(fab.start_flow(f, [](const FlowRecord&) {}), std::invalid_argument);
  f.dst = tls::net::HostId{-1};
  EXPECT_THROW(fab.start_flow(f, [](const FlowRecord&) {}), std::invalid_argument);
  f.dst = tls::net::HostId{1};
  f.bytes = tls::net::Bytes{-5};
  EXPECT_THROW(fab.start_flow(f, [](const FlowRecord&) {}), std::invalid_argument);
}

TEST(Fabric, RejectsBadConfig) {
  sim::Simulator s(1);
  FabricConfig c = ideal(0);
  EXPECT_THROW(Fabric(s, c), std::invalid_argument);
  c = ideal(2);
  c.chunk_size = tls::net::Bytes{0};
  EXPECT_THROW(Fabric(s, c), std::invalid_argument);
  c = ideal(2);
  c.flow_window = 0;
  EXPECT_THROW(Fabric(s, c), std::invalid_argument);
}

TEST(Fabric, FairSharingBetweenEqualFlows) {
  // N equal 12.5 MB flows from host 0 to N distinct hosts at window 4
  // share one pfifo egress with a closed form, exact in integer ns. Each
  // flow is 95 chunks of 128 KiB (t = 104,858 ns) and one of 48,160 B
  // (38,528 ns): sum t = 10,000,038 ns. The egress never idles and serves
  // 4-chunk blocks in flow order, so the last flow ends as a lone flow of
  // N times the bytes would, at N * sum t + t(128 KiB), and each earlier
  // flow one last-block time (3 * 104,858 + 38,528 = 353,102 ns) before
  // the next: 19,751,832 and 20,104,934 ns for N = 2.
  const sim::Time sum{10'000'038};
  const sim::Time full{104'858};
  const sim::Time last_block{353'102};
  for (int n : {2, 3}) {
    SCOPED_TRACE(testing::Message() << n << " flows");
    sim::Simulator s(1);
    Fabric fab(s, ideal(n + 1));
    std::vector<sim::Time> ends(static_cast<std::size_t>(n), sim::Time{0});
    for (int i = 0; i < n; ++i) {
      FlowSpec f;
      f.src = tls::net::HostId{0};
      f.dst = tls::net::HostId{1 + i};
      f.bytes = tls::net::Bytes{12'500'000};
      fab.start_flow(f, [&ends, i](const FlowRecord& r) {
        ends[static_cast<std::size_t>(i)] = r.end;
      });
    }
    s.run();
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(ends[static_cast<std::size_t>(i)],
                sum * n + full - last_block * (n - 1 - i))
          << "flow " << i;
    }
  }
}

TEST(Fabric, IngressFanInContention) {
  sim::Simulator s(1);
  Fabric fab(s, ideal(3));
  std::vector<sim::Time> ends(2, tls::sim::Time{0});
  // Two sources send to one destination: ingress is the bottleneck.
  for (int i = 0; i < 2; ++i) {
    FlowSpec f;
    f.src = tls::net::HostId{i};
    f.dst = tls::net::HostId{2};
    f.bytes = tls::net::Bytes{12'500'000};
    fab.start_flow(f, [&ends, i](const FlowRecord& r) { ends[static_cast<size_t>(i)] = r.end; });
  }
  s.run();
  EXPECT_GT(sim::to_seconds(std::max(ends[0], ends[1])), 0.018);
}

TEST(Fabric, CompletedFlowCountAndActiveFlows) {
  sim::Simulator s(1);
  Fabric fab(s, ideal(2));
  FlowSpec f;
  f.src = tls::net::HostId{0};
  f.dst = tls::net::HostId{1};
  f.bytes = tls::net::Bytes{1000};
  fab.start_flow(f, [](const FlowRecord&) {});
  EXPECT_EQ(fab.active_flows(), 1u);
  s.run();
  EXPECT_EQ(fab.active_flows(), 0u);
  EXPECT_EQ(fab.completed_flows(), 1u);
}

TEST(Fabric, ProtocolOverheadInflatesWireBytes) {
  sim::Simulator s(1);
  FabricConfig c = ideal(2);
  c.protocol_overhead = 2.0;
  Fabric fab(s, c);
  FlowSpec f;
  f.src = tls::net::HostId{0};
  f.dst = tls::net::HostId{1};
  f.bytes = tls::net::Bytes{1'250'000};
  sim::Time done = tls::sim::Time{0};
  fab.start_flow(f, [&](const FlowRecord& r) { done = r.end; });
  s.run();
  // Twice the wire bytes => about twice the ideal duration.
  EXPECT_NEAR(sim::to_seconds(done), 0.002, 0.0005);
  EXPECT_GE(fab.egress(tls::net::HostId{0}).counters().bytes, tls::net::Bytes{2'500'000});
}

TEST(Fabric, SwitchLatencyDelaysDelivery) {
  sim::Simulator s(1);
  FabricConfig c = ideal(2);
  c.switch_latency = sim::from_millis(5);
  Fabric fab(s, c);
  FlowSpec f;
  f.src = tls::net::HostId{0};
  f.dst = tls::net::HostId{1};
  f.bytes = tls::net::Bytes{100};
  sim::Time done = tls::sim::Time{0};
  fab.start_flow(f, [&](const FlowRecord& r) { done = r.end; });
  s.run();
  EXPECT_GE(done, sim::from_millis(5));
}

TEST(Fabric, WindowScalesWithWeightDeterministically) {
  // With sigma 0 every flow's window is the base; completions of equal
  // flows through a shared port stay tightly grouped.
  sim::Simulator s(1);
  Fabric fab(s, ideal(5));
  std::vector<sim::Time> ends;
  for (int i = 0; i < 4; ++i) {
    FlowSpec f;
    f.src = tls::net::HostId{0};
    f.dst = tls::net::HostId{1 + i};
    f.bytes = tls::net::Bytes{1'250'000};
    fab.start_flow(f, [&](const FlowRecord& r) { ends.push_back(r.end); });
  }
  s.run();
  ASSERT_EQ(ends.size(), 4u);
  sim::Time spread = *std::max_element(ends.begin(), ends.end()) -
                     *std::min_element(ends.begin(), ends.end());
  EXPECT_LT(sim::to_seconds(spread), 0.001);
}

TEST(Fabric, WeightNoiseSpreadsCompletions) {
  sim::Simulator s(1);
  FabricConfig c = ideal(21);
  c.tcp_weight_sigma = 0.3;
  Fabric fab(s, c);
  std::vector<sim::Time> ends;
  for (int i = 0; i < 20; ++i) {
    FlowSpec f;
    f.src = tls::net::HostId{0};
    f.dst = tls::net::HostId{1 + i};
    f.bytes = tls::net::Bytes{1'868'776};
    fab.start_flow(f, [&](const FlowRecord& r) { ends.push_back(r.end); });
  }
  s.run();
  ASSERT_EQ(ends.size(), 20u);
  sim::Time spread = *std::max_element(ends.begin(), ends.end()) -
                     *std::min_element(ends.begin(), ends.end());
  // Under contention the noisy windows must create a visible spread.
  EXPECT_GT(sim::to_seconds(spread), 0.002);
}

TEST(Fabric, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Simulator s(77);
    FabricConfig c;
    c.num_hosts = 4;
    Fabric fab(s, c);
    sim::Time last = tls::sim::Time{0};
    for (int i = 0; i < 6; ++i) {
      FlowSpec f;
      f.src = tls::net::HostId{i % 2};
      f.dst = tls::net::HostId{2 + (i % 2)};
      f.bytes = tls::net::Bytes{500'000} + i * tls::net::Bytes{1000};
      fab.start_flow(f, [&](const FlowRecord& r) { last = std::max(last, r.end); });
    }
    s.run();
    return last;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Fabric, ByteConservationEgressEqualsIngress) {
  sim::Simulator s(5);
  FabricConfig c;
  c.num_hosts = 4;
  Fabric fab(s, c);
  for (int i = 0; i < 10; ++i) {
    FlowSpec f;
    f.src = tls::net::HostId{i % 4};
    f.dst = tls::net::HostId{(i + 1) % 4};
    f.bytes = tls::net::Bytes{100'000 * (i + 1)};
    fab.start_flow(f, [](const FlowRecord&) {});
  }
  s.run();
  Bytes tx = tls::net::Bytes{0}, rx = tls::net::Bytes{0};
  for (HostId h = tls::net::HostId{0}; h < tls::net::HostId{4}; ++h) {
    tx += fab.egress(h).counters().bytes;
    rx += fab.ingress(h).counters().bytes;
  }
  EXPECT_EQ(tx, rx);
  EXPECT_GT(tx, tls::net::Bytes{0});
}

}  // namespace
}  // namespace tls::net
