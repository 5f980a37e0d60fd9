#include "net/pfifo_qdisc.hpp"

#include <gtest/gtest.h>

namespace tls::net {
namespace {

Chunk make_chunk(FlowId flow, Bytes size, std::uint32_t index = 0) {
  Chunk c;
  c.flow = flow;
  c.size = size;
  c.index = index;
  return c;
}

TEST(Pfifo, EmptyIsIdle) {
  PfifoQdisc q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.dequeue(tls::sim::Time{0}).kind, DequeueResult::Kind::kIdle);
}

TEST(Pfifo, StrictArrivalOrderAcrossFlows) {
  PfifoQdisc q;
  q.enqueue(make_chunk(1, tls::net::Bytes{10}));
  q.enqueue(make_chunk(2, tls::net::Bytes{10}));
  q.enqueue(make_chunk(1, tls::net::Bytes{10}, 1));
  EXPECT_EQ(q.dequeue(tls::sim::Time{0}).chunk.flow, 1u);
  EXPECT_EQ(q.dequeue(tls::sim::Time{0}).chunk.flow, 2u);
  EXPECT_EQ(q.dequeue(tls::sim::Time{0}).chunk.flow, 1u);
}

TEST(Pfifo, BacklogAccounting) {
  PfifoQdisc q;
  q.enqueue(make_chunk(1, tls::net::Bytes{100}));
  q.enqueue(make_chunk(2, tls::net::Bytes{200}));
  EXPECT_EQ(q.backlog_bytes(), tls::net::Bytes{300});
  EXPECT_EQ(q.backlog_chunks(), 2u);
  q.dequeue(tls::sim::Time{0});
  EXPECT_EQ(q.backlog_bytes(), tls::net::Bytes{200});
}

TEST(Pfifo, IgnoresBandField) {
  PfifoQdisc q;
  Chunk high = make_chunk(1, tls::net::Bytes{10});
  high.band = tls::net::BandId{0};
  Chunk low = make_chunk(2, tls::net::Bytes{10});
  low.band = tls::net::BandId{5};
  q.enqueue(low);
  q.enqueue(high);
  EXPECT_EQ(q.dequeue(tls::sim::Time{0}).chunk.flow, 2u);  // arrival order, not priority
}

TEST(Pfifo, DrainPreservesOrderAndEmpties) {
  PfifoQdisc q;
  for (std::uint32_t i = 0; i < 5; ++i) q.enqueue(make_chunk(1, tls::net::Bytes{10}, i));
  std::vector<Chunk> out;
  q.drain(out);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(out[i].index, i);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.backlog_bytes(), tls::net::Bytes{0});
}

}  // namespace
}  // namespace tls::net
