#include "net/wdrr.hpp"

#include <gtest/gtest.h>

#include <map>

namespace tls::net {
namespace {

Chunk make_chunk(FlowId flow, Bytes size, double weight = 1.0,
                 std::uint32_t index = 0) {
  Chunk c;
  c.flow = flow;
  c.size = size;
  c.index = index;
  c.weight = weight;
  return c;
}

TEST(Wdrr, EmptyBandReturnsNothing) {
  WdrrBand band;
  EXPECT_TRUE(band.empty());
  EXPECT_FALSE(band.dequeue().has_value());
}

TEST(Wdrr, SingleFlowFifoOrder) {
  WdrrBand band;
  for (std::uint32_t i = 0; i < 5; ++i) band.enqueue(make_chunk(1, tls::net::Bytes{100}, 1.0, i));
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto c = band.dequeue();
    ASSERT_TRUE(c);
    EXPECT_EQ(c->index, i);
  }
  EXPECT_TRUE(band.empty());
}

TEST(Wdrr, BacklogCountsBytesAndChunks) {
  WdrrBand band;
  band.enqueue(make_chunk(1, tls::net::Bytes{100}));
  band.enqueue(make_chunk(2, tls::net::Bytes{250}));
  EXPECT_EQ(band.backlog_bytes(), tls::net::Bytes{350});
  EXPECT_EQ(band.backlog_chunks(), 2u);
  band.dequeue();
  EXPECT_EQ(band.backlog_chunks(), 1u);
}

TEST(Wdrr, EqualWeightsShareEqually) {
  WdrrBand band(tls::net::Bytes{100});
  for (int i = 0; i < 50; ++i) {
    band.enqueue(make_chunk(1, tls::net::Bytes{100}));
    band.enqueue(make_chunk(2, tls::net::Bytes{100}));
  }
  std::map<FlowId, int> first20;
  for (int i = 0; i < 20; ++i) ++first20[band.dequeue()->flow];
  EXPECT_EQ(first20[1], 10);
  EXPECT_EQ(first20[2], 10);
}

TEST(Wdrr, WeightsBiasService) {
  WdrrBand band(tls::net::Bytes{100});
  for (int i = 0; i < 90; ++i) {
    band.enqueue(make_chunk(1, tls::net::Bytes{100}, 2.0));
    band.enqueue(make_chunk(2, tls::net::Bytes{100}, 1.0));
  }
  std::map<FlowId, int> first30;
  for (int i = 0; i < 30; ++i) ++first30[band.dequeue()->flow];
  // 2:1 weights -> ~2:1 service.
  EXPECT_NEAR(first30[1], 20, 2);
  EXPECT_NEAR(first30[2], 10, 2);
}

TEST(Wdrr, HugeQuantumServesAHeavyFlow) {
  // 2^62 * 3 is past int64: the top-up must not overflow into a negative
  // deficit that never reaches the head chunk's size.
  WdrrBand band(tls::net::Bytes{std::int64_t{1} << 62});
  band.enqueue(make_chunk(1, tls::net::Bytes{100}, 3.0));
  auto c = band.dequeue();
  ASSERT_TRUE(c);
  EXPECT_EQ(c->flow, 1u);
  EXPECT_TRUE(band.empty());
}

TEST(Wdrr, TinyWeightClampedNotStarved) {
  WdrrBand band(tls::net::Bytes{100});
  for (int i = 0; i < 50; ++i) {
    band.enqueue(make_chunk(1, tls::net::Bytes{100}, 1e-9));  // clamped to kMinWeight
    band.enqueue(make_chunk(2, tls::net::Bytes{100}, 1.0));
  }
  int served_flow1 = 0;
  for (int i = 0; i < 60; ++i) {
    if (band.dequeue()->flow == 1) ++served_flow1;
  }
  EXPECT_GT(served_flow1, 0);
}

TEST(Wdrr, ActiveFlowsTracksBackloggedFlows) {
  WdrrBand band;
  EXPECT_EQ(band.active_flows(), 0u);
  band.enqueue(make_chunk(1, tls::net::Bytes{100}));
  band.enqueue(make_chunk(2, tls::net::Bytes{100}));
  band.enqueue(make_chunk(1, tls::net::Bytes{100}));
  EXPECT_EQ(band.active_flows(), 2u);
  band.dequeue();
  band.dequeue();
  band.dequeue();
  EXPECT_EQ(band.active_flows(), 0u);
}

TEST(Wdrr, FlowReactivationAfterDrainWorks) {
  WdrrBand band;
  band.enqueue(make_chunk(7, tls::net::Bytes{100}));
  EXPECT_TRUE(band.dequeue());
  EXPECT_TRUE(band.empty());
  band.enqueue(make_chunk(7, tls::net::Bytes{100}, 0.5, 1));
  auto c = band.dequeue();
  ASSERT_TRUE(c);
  EXPECT_EQ(c->flow, 7u);
  EXPECT_EQ(c->index, 1u);
}

TEST(Wdrr, VariableChunkSizesServedCompletely) {
  WdrrBand band(128 * kKiB);
  Bytes total = tls::net::Bytes{0};
  for (int i = 0; i < 10; ++i) {
    Bytes size = tls::net::Bytes{1000 * (i + 1)};
    band.enqueue(make_chunk(static_cast<FlowId>(i % 3), size));
    total += size;
  }
  Bytes served = tls::net::Bytes{0};
  while (auto c = band.dequeue()) served += c->size;
  EXPECT_EQ(served, total);
}

TEST(Wdrr, ManyFlowsAllServed) {
  WdrrBand band;
  for (FlowId f = 1; f <= 100; ++f) band.enqueue(make_chunk(f, tls::net::Bytes{64}));
  std::map<FlowId, int> counts;
  while (auto c = band.dequeue()) ++counts[c->flow];
  EXPECT_EQ(counts.size(), 100u);
}

}  // namespace
}  // namespace tls::net
