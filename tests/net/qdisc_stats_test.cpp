// Service statistics of each discipline as a Tracer attached with
// Qdisc::set_obs records them: band_service per band (pfifo, prio), htb
// green and yellow sends per class, and overlimit stalls. These are the
// facts `tc -s qdisc show` prints; the simulator reports them through the
// trace and the --metrics counters fed by the same emission sites.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "net/htb_qdisc.hpp"
#include "net/pfifo_qdisc.hpp"
#include "net/prio_qdisc.hpp"
#include "obs/trace.hpp"

namespace tls::net {
namespace {

using obs::EventKind;

Chunk make_chunk(FlowId flow, BandId band, Bytes size) {
  Chunk c;
  c.flow = flow;
  c.band = band;
  c.size = size;
  return c;
}

/// Sends and bytes of one event kind in a tracer's log, keyed by the
/// event's band (the band for band_service, the class minor for htb).
struct Served {
  int sends = 0;
  Bytes bytes{};
};
std::map<std::int32_t, Served> tally(const obs::Tracer& tracer,
                                     EventKind kind) {
  std::map<std::int32_t, Served> out;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.kind != kind) continue;
    ++out[e.band].sends;
    out[e.band].bytes += Bytes{e.bytes};
  }
  return out;
}

/// Serves `q` until it is empty on a 10 Gb/s link: each chunk advances the
/// clock by its transmit time, each stall jumps to its retry time.
void serve_all(Qdisc& q) {
  sim::Time now{0};
  while (q.backlog_chunks() > 0) {
    DequeueResult r = q.dequeue(now);
    ASSERT_NE(r.kind, DequeueResult::Kind::kIdle);
    now = r.kind == DequeueResult::Kind::kChunk
              ? now + transmit_time(r.chunk.size, gbps(10))
              : r.retry_at;
  }
}

HtbClassConfig shaped_class(Rate ceil) {
  HtbClassConfig cfg;
  cfg.minor = 1;
  cfg.rate = mbps(8);  // 1 MB/s assured
  cfg.ceil = ceil;
  cfg.burst = 200 * kKiB;  // enough for exactly the first chunks
  cfg.cburst = 200 * kKiB;
  return cfg;
}

TEST(QdiscStats, PfifoCountsSentBytes) {
  obs::Tracer tracer;
  PfifoQdisc q;
  q.set_obs(&tracer, HostId{3});
  q.enqueue(make_chunk(1, BandId{0}, Bytes{100}));
  q.enqueue(make_chunk(2, BandId{0}, Bytes{250}));
  q.dequeue(sim::Time{0});
  std::map<std::int32_t, Served> served =
      tally(tracer, EventKind::kBandService);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].sends, 1);
  EXPECT_EQ(served[0].bytes, Bytes{100});
  q.dequeue(sim::Time{0});
  served = tally(tracer, EventKind::kBandService);
  EXPECT_EQ(served[0].sends, 2);
  EXPECT_EQ(served[0].bytes, Bytes{350});
  for (const obs::TraceEvent& e : tracer.events()) EXPECT_EQ(e.host, 3);
}

TEST(QdiscStats, PrioTracksPerBand) {
  obs::Tracer tracer;
  PrioQdisc q(3);
  q.set_obs(&tracer, HostId{0});
  q.enqueue(make_chunk(2, BandId{2}, Bytes{200}));
  q.enqueue(make_chunk(1, BandId{0}, Bytes{100}));
  q.dequeue(sim::Time{0});
  q.dequeue(sim::Time{0});
  std::map<std::int32_t, Served> served =
      tally(tracer, EventKind::kBandService);
  ASSERT_EQ(served.size(), 2u);  // nothing for the empty band 1
  EXPECT_EQ(served[0].bytes, Bytes{100});
  EXPECT_EQ(served[2].bytes, Bytes{200});
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.events()[0].band, 0);  // band 0 first, though queued last
}

TEST(QdiscStats, HtbDistinguishesGreenFromYellow) {
  obs::Tracer tracer;
  HtbQdisc q(gbps(10));
  q.set_obs(&tracer, HostId{0});
  ASSERT_TRUE(q.add_class(shaped_class(gbps(10))));
  for (int i = 0; i < 6; ++i) q.enqueue(make_chunk(1, BandId{1}, 128 * kKiB));
  serve_all(q);
  std::map<std::int32_t, Served> green = tally(tracer, EventKind::kHtbGreen);
  std::map<std::int32_t, Served> yellow = tally(tracer, EventKind::kHtbYellow);
  EXPECT_GE(green[1].sends, 1);   // first sends ride the full bucket
  EXPECT_GE(yellow[1].sends, 1);  // later sends borrow at the ceiling
  EXPECT_EQ(green[1].sends + yellow[1].sends, 6);
  EXPECT_EQ(green[1].bytes + yellow[1].bytes, 6 * 128 * kKiB);
  // Green first, then yellow: the assured bucket empties and stays empty
  // at this rate, so no send after the first yellow one is green.
  bool seen_yellow = false;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.kind == EventKind::kHtbYellow) seen_yellow = true;
    if (e.kind == EventKind::kHtbGreen) {
      EXPECT_FALSE(seen_yellow);
    }
  }
}

TEST(QdiscStats, HtbOverlimitsCounted) {
  obs::Tracer tracer;
  HtbQdisc q(gbps(10));
  q.set_obs(&tracer, HostId{0});
  ASSERT_TRUE(q.add_class(shaped_class(mbps(8))));  // hard cap: stalls
  for (int i = 0; i < 4; ++i) q.enqueue(make_chunk(1, BandId{1}, 128 * kKiB));
  serve_all(q);
  int overlimits = 0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.kind != EventKind::kOverlimit) continue;
    ++overlimits;
    EXPECT_GT(sim::Time{e.a}, e.at) << "the retry lies ahead of the stall";
  }
  EXPECT_GT(overlimits, 0);
  EXPECT_EQ(tally(tracer, EventKind::kHtbYellow)[1].sends, 0);
}

TEST(QdiscStats, UnknownClassStatsEmpty) {
  // Traffic whose band names no class takes the unshaped direct queue: it
  // is served, and no class records a send for it.
  obs::Tracer tracer;
  HtbQdisc q(gbps(10));
  q.set_obs(&tracer, HostId{0});
  ASSERT_TRUE(q.add_class(shaped_class(gbps(10))));
  q.enqueue(make_chunk(1, BandId{42}, Bytes{100}));
  DequeueResult r = q.dequeue(sim::Time{0});
  ASSERT_EQ(r.kind, DequeueResult::Kind::kChunk);
  EXPECT_EQ(r.chunk.band, BandId{42});
  EXPECT_TRUE(tally(tracer, EventKind::kHtbGreen).empty());
  EXPECT_TRUE(tally(tracer, EventKind::kHtbYellow).empty());
}

}  // namespace
}  // namespace tls::net
