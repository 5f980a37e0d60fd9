// Ring unit tests over the queued-chunk element, the largest one a ring
// holds: FIFO fidelity across growth and wraparound, whole-element round
// trips, drain order, clear-and-reuse (storage kept) and move.
#include "simcore/ring.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/chunk.hpp"

namespace tls::sim {
namespace {

using net::Chunk;
using ChunkRing = Ring<Chunk>;

Chunk make_chunk(std::uint32_t index) {
  Chunk c;
  c.flow = 1000 + index;
  c.size = tls::net::Bytes{100} + static_cast<net::Bytes>(index);
  c.index = index;
  c.band = tls::net::BandId{static_cast<std::int32_t>(index % 5)};
  c.weight = 0.5 + 0.01 * index;
  c.dst = tls::net::HostId{static_cast<std::int32_t>(index % 7)};
  c.job = static_cast<std::int32_t>(index % 3);
  c.last = index % 2 == 0;
  c.enqueued_at = 10 * static_cast<sim::Time>(index);
  return c;
}

void expect_same(const Chunk& a, const Chunk& b) {
  EXPECT_EQ(a.flow, b.flow);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.band, b.band);
  EXPECT_EQ(a.weight, b.weight);
  EXPECT_EQ(a.dst, b.dst);
  EXPECT_EQ(a.job, b.job);
  EXPECT_EQ(a.last, b.last);
  EXPECT_EQ(a.enqueued_at, b.enqueued_at);
}

TEST(ChunkRing, RoundTripsEveryField) {
  ChunkRing ring;
  for (std::uint32_t i = 0; i < 3; ++i) ring.push_back(make_chunk(i));
  expect_same(ring.front(), make_chunk(0));
  EXPECT_EQ(ring.size(), 3u);  // front() does not consume
  for (std::uint32_t i = 0; i < 3; ++i) {
    expect_same(ring.take_front(), make_chunk(i));
  }
  EXPECT_TRUE(ring.empty());
}

TEST(ChunkRing, FifoAcrossGrowthAndWraparound) {
  ChunkRing ring;
  // Interleave pushes and pops so the head walks around the ring while the
  // ring grows through several capacities.
  std::uint32_t next_push = 0;
  std::uint32_t next_pop = 0;
  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 7; ++k) ring.push_back(make_chunk(next_push++));
    for (int k = 0; k < 5; ++k) {
      ASSERT_FALSE(ring.empty());
      expect_same(ring.take_front(), make_chunk(next_pop++));
    }
  }
  EXPECT_EQ(ring.size(), static_cast<std::size_t>(next_push - next_pop));
  while (!ring.empty()) expect_same(ring.take_front(), make_chunk(next_pop++));
  EXPECT_EQ(next_pop, next_push);
}

TEST(ChunkRing, AppendToPreservesServiceOrder) {
  ChunkRing ring;
  for (std::uint32_t i = 0; i < 10; ++i) ring.push_back(make_chunk(i));
  ring.take_front();
  ring.take_front();
  std::vector<Chunk> out;
  out.push_back(make_chunk(99));  // existing content must be kept
  ring.append_to(out);
  ASSERT_EQ(out.size(), 9u);
  expect_same(out[0], make_chunk(99));
  for (std::uint32_t i = 2; i < 10; ++i) {
    expect_same(out[i - 1], make_chunk(i));
  }
  EXPECT_EQ(ring.size(), 8u);  // append_to does not consume
}

TEST(ChunkRing, ClearThenReuse) {
  ChunkRing ring;
  for (std::uint32_t i = 0; i < 20; ++i) ring.push_back(make_chunk(i));
  EXPECT_EQ(ring.capacity(), 32u);  // 16, doubled once
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 32u);  // the storage stays for reuse
  ring.push_back(make_chunk(7));
  EXPECT_EQ(ring.size(), 1u);
  expect_same(ring.take_front(), make_chunk(7));
}

TEST(ChunkRing, MoveTransfersArena) {
  ChunkRing a;
  for (std::uint32_t i = 0; i < 5; ++i) a.push_back(make_chunk(i));
  ChunkRing b = std::move(a);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_TRUE(a.empty());  // a moved-from ring is empty and reusable
  a.push_back(make_chunk(8));
  expect_same(a.take_front(), make_chunk(8));
  ChunkRing c;
  c.push_back(make_chunk(9));
  c = std::move(b);
  EXPECT_EQ(c.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) expect_same(c.take_front(), make_chunk(i));
}

}  // namespace
}  // namespace tls::sim
