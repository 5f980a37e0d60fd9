#include "net/port.hpp"

#include <gtest/gtest.h>

#include "net/pfifo_qdisc.hpp"
#include "net/prio_qdisc.hpp"

namespace tls::net {
namespace {

Chunk make_chunk(FlowId flow, Bytes size, HostId dst = HostId{0}) {
  Chunk c;
  c.flow = flow;
  c.size = size;
  c.dst = dst;
  return c;
}

class PortTest : public ::testing::Test {
 protected:
  sim::Simulator simulator{1};
  std::vector<Chunk> transmitted;
};

TEST_F(PortTest, TransmitsAtLineRate) {
  EgressPort port(simulator, /*rate=*/Rate{1000.0},
                  [&](const Chunk& c) { transmitted.push_back(c); });
  port.submit(make_chunk(1, tls::net::Bytes{500}), FlowSpec{});
  simulator.run();
  ASSERT_EQ(transmitted.size(), 1u);
  // 500 bytes at 1000 B/s = 0.5 s.
  EXPECT_EQ(simulator.now(), sim::from_seconds(0.5));
  EXPECT_EQ(port.counters().bytes, tls::net::Bytes{500});
  EXPECT_EQ(port.counters().chunks, 1u);
}

TEST_F(PortTest, SerializesBackToBack) {
  EgressPort port(simulator, Rate{1000.0},
                  [&](const Chunk& c) { transmitted.push_back(c); });
  port.submit(make_chunk(1, tls::net::Bytes{100}), FlowSpec{});
  port.submit(make_chunk(2, tls::net::Bytes{100}), FlowSpec{});
  simulator.run();
  EXPECT_EQ(transmitted.size(), 2u);
  EXPECT_EQ(simulator.now(), sim::from_seconds(0.2));
}

TEST_F(PortTest, ClassifierStampsBand) {
  EgressPort port(simulator, Rate{1000.0},
                  [&](const Chunk& c) { transmitted.push_back(c); });
  port.set_qdisc(std::make_unique<PrioQdisc>(4));
  FilterRule rule;
  rule.pref = 1;
  rule.src_port = 7000;
  rule.target_band = tls::net::BandId{2};
  port.classifier().upsert(rule);
  FlowSpec spec;
  spec.src_port = 7000;
  port.submit(make_chunk(1, tls::net::Bytes{10}), spec);
  simulator.run();
  ASSERT_EQ(transmitted.size(), 1u);
  EXPECT_EQ(transmitted[0].band, tls::net::BandId{2});
}

TEST_F(PortTest, QdiscReplacementMigratesBacklog) {
  EgressPort port(simulator, Rate{1000.0},
                  [&](const Chunk& c) { transmitted.push_back(c); });
  // Queue three chunks; the first goes into service immediately, two stay
  // in the qdisc.
  for (int i = 0; i < 3; ++i) port.submit(make_chunk(1, tls::net::Bytes{100}), FlowSpec{});
  port.set_qdisc(std::make_unique<PrioQdisc>(3));
  simulator.run();
  EXPECT_EQ(transmitted.size(), 3u);
  EXPECT_EQ(port.counters().bytes, tls::net::Bytes{300});
}

TEST_F(PortTest, PeakBacklogTracked) {
  EgressPort port(simulator, Rate{1000.0}, [&](const Chunk&) {});
  for (int i = 0; i < 4; ++i) port.submit(make_chunk(1, tls::net::Bytes{100}), FlowSpec{});
  // First chunk went into service; three remain queued, the peak.
  EXPECT_EQ(port.qdisc().backlog_bytes(), tls::net::Bytes{300});
  EXPECT_EQ(port.qdisc().backlog_chunks(), 3u);
  simulator.run();
  EXPECT_EQ(port.qdisc().backlog_bytes(), tls::net::Bytes{0});
  EXPECT_EQ(port.counters().bytes, tls::net::Bytes{400});
}

TEST_F(PortTest, BusyFlagDuringService) {
  EgressPort port(simulator, Rate{1000.0}, [&](const Chunk&) {});
  EXPECT_FALSE(port.busy());
  port.submit(make_chunk(1, tls::net::Bytes{100}), FlowSpec{});
  EXPECT_TRUE(port.busy());
  simulator.run();
  EXPECT_FALSE(port.busy());
}

TEST_F(PortTest, IngressFifoDrain) {
  std::vector<std::pair<FlowId, sim::Time>> delivered;
  IngressPort port(simulator, Rate{1000.0}, [&](const Chunk& c) {
    delivered.emplace_back(c.flow, simulator.now());
  });
  port.arrive(make_chunk(1, tls::net::Bytes{100}));
  port.arrive(make_chunk(2, tls::net::Bytes{100}));
  simulator.run();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].first, 1u);
  EXPECT_EQ(delivered[0].second, sim::from_seconds(0.1));
  EXPECT_EQ(delivered[1].second, sim::from_seconds(0.2));
  EXPECT_EQ(port.counters().bytes, tls::net::Bytes{200});
}

TEST_F(PortTest, IngressBacklogBytes) {
  IngressPort port(simulator, Rate{1000.0}, [&](const Chunk&) {});
  port.arrive(make_chunk(1, tls::net::Bytes{100}));
  port.arrive(make_chunk(2, tls::net::Bytes{150}));
  // First chunk is in service, second queued.
  EXPECT_EQ(port.backlog_bytes(), tls::net::Bytes{150});
  simulator.run();
  EXPECT_EQ(port.backlog_bytes(), tls::net::Bytes{0});
}

TEST_F(PortTest, MinimumOneNanosecondTransmit) {
  EXPECT_EQ(transmit_time(tls::net::Bytes{0}, Rate{1e9}), tls::sim::Time{1});
  EXPECT_EQ(transmit_time(tls::net::Bytes{1}, gbps(10)), tls::sim::Time{1});
  EXPECT_EQ(transmit_time(tls::net::Bytes{1250}, gbps(10)), tls::sim::Time{1000});  // 1 us
}

}  // namespace
}  // namespace tls::net
