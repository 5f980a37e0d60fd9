#include "net/prio_qdisc.hpp"

#include <gtest/gtest.h>

namespace tls::net {
namespace {

Chunk make_chunk(FlowId flow, BandId band, Bytes size = Bytes{100}) {
  Chunk c;
  c.flow = flow;
  c.band = band;
  c.size = size;
  return c;
}

TEST(Prio, HigherBandDrainsFirst) {
  PrioQdisc q(3);
  q.enqueue(make_chunk(1, tls::net::BandId{2}));
  q.enqueue(make_chunk(2, tls::net::BandId{0}));
  q.enqueue(make_chunk(3, tls::net::BandId{1}));
  EXPECT_EQ(q.dequeue(tls::sim::Time{0}).chunk.flow, 2u);
  EXPECT_EQ(q.dequeue(tls::sim::Time{0}).chunk.flow, 3u);
  EXPECT_EQ(q.dequeue(tls::sim::Time{0}).chunk.flow, 1u);
}

TEST(Prio, StrictPriorityStarvesLowerWhileHigherBacklogged) {
  PrioQdisc q(2);
  for (int i = 0; i < 10; ++i) q.enqueue(make_chunk(1, tls::net::BandId{0}));
  q.enqueue(make_chunk(2, tls::net::BandId{1}));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.dequeue(tls::sim::Time{0}).chunk.flow, 1u);
  EXPECT_EQ(q.dequeue(tls::sim::Time{0}).chunk.flow, 2u);
}

TEST(Prio, OutOfRangeBandClampsToLast) {
  PrioQdisc q(3);
  q.enqueue(make_chunk(1, tls::net::BandId{99}));   // clamps to band 2
  q.enqueue(make_chunk(2, tls::net::BandId{-5}));   // clamps to band 0
  EXPECT_EQ(q.dequeue(tls::sim::Time{0}).chunk.flow, 2u);
  EXPECT_EQ(q.dequeue(tls::sim::Time{0}).chunk.flow, 1u);
}

TEST(Prio, WithinBandFairAmongFlows) {
  PrioQdisc q(2, Bytes{100});
  for (int i = 0; i < 20; ++i) {
    q.enqueue(make_chunk(1, tls::net::BandId{0}, tls::net::Bytes{100}));
    q.enqueue(make_chunk(2, tls::net::BandId{0}, tls::net::Bytes{100}));
  }
  int f1 = 0, f2 = 0;
  for (int i = 0; i < 20; ++i) {
    FlowId f = q.dequeue(tls::sim::Time{0}).chunk.flow;
    (f == 1 ? f1 : f2)++;
  }
  EXPECT_EQ(f1, 10);
  EXPECT_EQ(f2, 10);
}

TEST(Prio, BandCountValidated) {
  EXPECT_EQ(PrioQdisc(1).bands(), 1);
  EXPECT_EQ(PrioQdisc(16).bands(), 16);
  // Checked in every build: a 0-band prio would clamp enqueues into
  // [0, -1].
  EXPECT_DEATH(PrioQdisc(0),
               "prio band count must be in \\[1, 16\\], got 0");
  EXPECT_DEATH(PrioQdisc(17),
               "prio band count must be in \\[1, 16\\], got 17");
}

TEST(Prio, BacklogSumsAcrossBands) {
  PrioQdisc q(4);
  q.enqueue(make_chunk(1, tls::net::BandId{0}, tls::net::Bytes{10}));
  q.enqueue(make_chunk(2, tls::net::BandId{3}, tls::net::Bytes{20}));
  EXPECT_EQ(q.backlog_bytes(), tls::net::Bytes{30});
  EXPECT_EQ(q.backlog_chunks(), 2u);
}

TEST(Prio, DrainEmitsHighPriorityFirst) {
  PrioQdisc q(3);
  q.enqueue(make_chunk(1, tls::net::BandId{2}));
  q.enqueue(make_chunk(2, tls::net::BandId{0}));
  std::vector<Chunk> out;
  q.drain(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].flow, 2u);
  EXPECT_EQ(out[1].flow, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(Prio, SingleBandDegeneratesToFairShare) {
  PrioQdisc q(1);
  q.enqueue(make_chunk(1, tls::net::BandId{0}));
  q.enqueue(make_chunk(2, tls::net::BandId{5}));  // clamped into the only band
  EXPECT_EQ(q.backlog_chunks(), 2u);
  EXPECT_EQ(q.dequeue(tls::sim::Time{0}).kind, DequeueResult::Kind::kChunk);
}

TEST(Prio, BandInspection) {
  PrioQdisc q(3);
  q.enqueue(make_chunk(1, tls::net::BandId{1}));
  EXPECT_EQ(q.band(1).backlog_chunks(), 1u);
  EXPECT_EQ(q.band(0).backlog_chunks(), 0u);
}

}  // namespace
}  // namespace tls::net
