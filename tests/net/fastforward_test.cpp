// Deep-backlog drain tests: an egress port draining a long pfifo backlog
// must complete every chunk at its exact serialization instant, and a
// qdisc swap mid-drain must hand the waiting chunks to the new discipline
// in FIFO order. Any shortcut that fast-forwards the drain has to keep
// both properties.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/port.hpp"
#include "net/prio_qdisc.hpp"

namespace tls::net {
namespace {

Chunk make_chunk(FlowId flow, Bytes size, std::uint32_t index = 0) {
  Chunk c;
  c.flow = flow;
  c.size = size;
  c.index = index;
  return c;
}

TEST(FastForward, StagedDrainPreservesPerChunkCompletionTimes) {
  // 100 equal chunks at 1000 B/s: chunk i must complete exactly at
  // (i+1)*0.1s, as if each had been polled individually.
  sim::Simulator simulator(1);
  std::vector<std::pair<std::uint32_t, sim::Time>> done;
  EgressPort port(simulator, Rate{1000.0}, [&](const Chunk& c) {
    done.emplace_back(c.index, simulator.now());
  });
  for (std::uint32_t i = 0; i < 100; ++i) {
    port.submit(make_chunk(1, tls::net::Bytes{100}, i), FlowSpec{});
  }
  simulator.run();
  ASSERT_EQ(done.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(done[i].first, i);
    EXPECT_EQ(done[i].second, sim::from_seconds(0.1) * (i + 1));
  }
  EXPECT_EQ(port.counters().chunks, 100u);
  EXPECT_EQ(port.counters().bytes, tls::net::Bytes{100 * 100});
  EXPECT_TRUE(port.qdisc().empty());
  EXPECT_FALSE(port.busy());
}

TEST(FastForward, QdiscSwapRequeuesStagedChunksAheadOfBacklog) {
  // Replace the qdisc mid-drain: the chunks still waiting move into the
  // new discipline in service order, so arrival order stays strictly FIFO.
  sim::Simulator simulator(1);
  std::vector<std::uint32_t> order;
  EgressPort port(simulator, Rate{1000.0},
                  [&](const Chunk& c) { order.push_back(c.index); });
  for (std::uint32_t i = 0; i < 8; ++i) {
    port.submit(make_chunk(1, tls::net::Bytes{100}, i), FlowSpec{});
  }
  // At 0.25 s two chunks are done and a third is on the wire.
  simulator.run(sim::from_seconds(0.25));
  EXPECT_EQ(order.size(), 2u);
  port.set_qdisc(std::make_unique<PrioQdisc>(3));
  EXPECT_EQ(port.qdisc().backlog_chunks(), 5u);
  EXPECT_EQ(port.qdisc().backlog_bytes(), tls::net::Bytes{500});
  simulator.run();
  ASSERT_EQ(order.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace tls::net
