#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/prio_qdisc.hpp"

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

// Job A's and job B's bursts from host 0 on an ideal fabric, each of four
// 1.25 MB flows: A's to hosts 1-4 from source port 5000, B's to hosts 5-8
// from port 6000, A's started first. With `prio`, host 0's root is a
// 2-band prio whose source-port filters put A in band 0 and B in band 1;
// otherwise it is the default pfifo. Every run starts with a 1,000 B
// flow to host 9 that holds the idle link for 800 ns, so each job's whole
// first window is queued before its first chunk is served, alone as
// behind the other job. Returns each job flow's end, A's flows first.
std::vector<sim::Time> burst_pair_ends(bool with_a, bool with_b, bool prio) {
  sim::Simulator s(1);
  Fabric fab(s, ideal(10));
  EgressPort& port = fab.egress(HostId{0});
  if (prio) {
    port.set_qdisc(std::make_unique<PrioQdisc>(2));
    for (int band = 0; band < 2; ++band) {
      FilterRule rule;
      rule.pref = 10 + band;
      rule.src_port = static_cast<std::uint16_t>(5000 + 1000 * band);
      rule.target_band = BandId{band};
      port.classifier().upsert(rule);
    }
  }
  FlowSpec pilot;
  pilot.src = HostId{0};
  pilot.dst = HostId{9};
  pilot.bytes = Bytes{1'000};
  fab.start_flow(pilot, [](const FlowRecord&) {});
  std::vector<sim::Time> ends;
  for (int job = 0; job < 2; ++job) {
    if (!(job == 0 ? with_a : with_b)) continue;
    for (int i = 0; i < 4; ++i) {
      FlowSpec f;
      f.src = HostId{0};
      f.dst = HostId{1 + 4 * job + i};
      f.src_port = static_cast<std::uint16_t>(5000 + 1000 * job);
      f.job_id = job;
      f.bytes = Bytes{1'250'000};
      const std::size_t slot = ends.size();
      ends.push_back(sim::Time{-1});
      fab.start_flow(f, [&ends, slot](const FlowRecord& r) {
        ends[slot] = r.end;
      });
    }
  }
  s.run();
  return ends;
}

TEST(Fabric, StrictPriorityBurstPairHalfTime) {
  // The Fig. 4 half-time in closed form, exact in integer ns. Band 0 keeps
  // the link busy until A's last chunk leaves, so A never sees B: every A
  // flow ends exactly when it ends with B absent. B's chunks wait in band
  // 1 until then and are served from there as if A had never been, so
  // every B flow ends exactly sum_A t later than with A absent, sum_A t
  // being the summed transmit time of A's chunks: per flow 9 chunks of
  // 128 KiB (104,858 ns) and one of 70,352 B (56,282 ns), 1,000,004 ns.
  const sim::Time full = transmit_time(128 * kKiB, gbps(10));
  const sim::Time tail = transmit_time(Bytes{70'352}, gbps(10));
  const sim::Time sum_a = (full * 9 + tail) * 4;
  ASSERT_EQ(sum_a, sim::Time{4'000'016});
  const std::vector<sim::Time> both = burst_pair_ends(true, true, true);
  const std::vector<sim::Time> a_alone = burst_pair_ends(true, false, true);
  const std::vector<sim::Time> b_alone = burst_pair_ends(false, true, true);
  ASSERT_EQ(both.size(), 8u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(both[i], a_alone[i]) << "A flow " << i;
    EXPECT_EQ(both[4 + i], b_alone[i] + sum_a) << "B flow " << i;
  }
  // Contrast: on the default pfifo the two bursts interleave, and A's last
  // flow ends no earlier than sum_A t + sum_B t less four last-block
  // times (3 * 104,858 + 56,282 = 370,856 ns).
  const std::vector<sim::Time> fifo = burst_pair_ends(true, true, false);
  const sim::Time last_block = full * 3 + tail;
  const sim::Time a_last = *std::max_element(fifo.begin(), fifo.begin() + 4);
  EXPECT_GE(a_last, sum_a * 2 - last_block * 4);
  EXPECT_GT(a_last, *std::max_element(both.begin(), both.begin() + 4));
}

TEST(Fabric, PoissonArrivalsMatchMD1MeanWait) {
  // The egress as an M/D/1 queue: 200,000 flows of 100,000 B from host 0
  // to host 1 start at Poisson instants with mean gap D / rho. Each flow is
  // one chunk, served in D = 80,000 ns at the egress and again at the
  // ingress. Equal chunks leave the egress at least D apart, so none waits
  // at the ingress and end - start - 2D is the egress queue wait alone. Its
  // mean is Pollaczek-Khinchine's rho D / (2 (1 - rho)) = 40,000 ns at
  // rho = 0.5.
  const sim::Time d = transmit_time(Bytes{100'000}, gbps(10));
  ASSERT_EQ(d, sim::Time{80'000});
  const double rho = 0.5;
  const int flows = 200'000;
  sim::Simulator s(1);
  Fabric fab(s, ideal(2));
  sim::Rng gaps(1);
  int started = 0;
  int too_early = 0;
  std::int64_t wait_sum = 0;
  std::function<void()> arrive = [&] {
    FlowSpec f;
    f.src = tls::net::HostId{0};
    f.dst = tls::net::HostId{1};
    f.bytes = Bytes{100'000};
    fab.start_flow(f, [&](const FlowRecord& r) {
      sim::Time wait = r.end - r.start - d * 2;
      if (wait < sim::Time{0}) ++too_early;
      wait_sum += wait.raw();
    });
    if (++started == flows) return;
    double gap_ns = gaps.exponential(static_cast<double>(d.raw()) / rho);
    s.schedule_after(sim::Time{static_cast<std::int64_t>(gap_ns)},
                     [&arrive] { arrive(); });
  };
  arrive();
  s.run();
  ASSERT_EQ(fab.completed_flows(), static_cast<std::uint64_t>(flows));
  EXPECT_EQ(too_early, 0);
  const double want = rho * static_cast<double>(d.raw()) / (2 * (1 - rho));
  EXPECT_NEAR(static_cast<double>(wait_sum) / flows / want, 1.0, 0.03);
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
