// Parameterized property tests over the qdisc schedulers: conservation,
// weighted-share accuracy, and priority dominance across the parameter
// space (TEST_P sweeps).
#include <gtest/gtest.h>

#include <map>

#include "net/htb_qdisc.hpp"
#include "net/prio_qdisc.hpp"
#include "net/wdrr.hpp"
#include "simcore/rng.hpp"

namespace tls::net {
namespace {

Chunk make_chunk(FlowId flow, BandId band, Bytes size, double weight = 1.0) {
  Chunk c;
  c.flow = flow;
  c.band = band;
  c.size = size;
  c.weight = weight;
  return c;
}

// ---------------------------------------------------------------------------
// WDRR: long-run service share tracks the weight ratio.

class WdrrWeightRatio : public ::testing::TestWithParam<double> {};

TEST_P(WdrrWeightRatio, ServiceShareTracksWeights) {
  double ratio = GetParam();  // weight of flow 1 relative to flow 2
  WdrrBand band(tls::net::Bytes{100});
  const int chunks_per_flow = 600;
  for (int i = 0; i < chunks_per_flow; ++i) {
    band.enqueue(make_chunk(1, tls::net::BandId{0}, tls::net::Bytes{100}, ratio));
    band.enqueue(make_chunk(2, tls::net::BandId{0}, tls::net::Bytes{100}, 1.0));
  }
  // Serve while both flows stay backlogged; stop early so neither drains.
  std::map<FlowId, int> served;
  int to_serve = chunks_per_flow;  // less than the combined backlog
  for (int i = 0; i < to_serve; ++i) {
    auto c = band.dequeue();
    ASSERT_TRUE(c);
    ++served[c->flow];
  }
  double measured =
      static_cast<double>(served[1]) / std::max(1, served[2]);
  EXPECT_NEAR(measured, ratio, ratio * 0.15);
}

INSTANTIATE_TEST_SUITE_P(Ratios, WdrrWeightRatio,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "r" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

// ---------------------------------------------------------------------------
// Conservation: whatever goes in comes out, exactly once, for every
// classful discipline.

class QdiscConservation : public ::testing::TestWithParam<int> {};

TEST_P(QdiscConservation, EveryChunkServedExactlyOnce) {
  int which = GetParam();
  std::unique_ptr<Qdisc> q;
  switch (which) {
    case 0: q = std::make_unique<PrioQdisc>(4); break;
    default: {
      auto htb = std::make_unique<HtbQdisc>(gbps(10), 0x3F);
      HtbClassConfig dflt;
      dflt.minor = 0x3F;
      dflt.rate = gbps(2);
      dflt.ceil = gbps(10);
      dflt.prio = 7;
      htb->add_class(dflt);
      for (std::uint32_t m = 1; m <= 4; ++m) {
        HtbClassConfig cfg;
        cfg.minor = m;
        cfg.rate = mbps(1);
        cfg.ceil = gbps(10);
        cfg.prio = static_cast<int>(m - 1);
        htb->add_class(cfg);
      }
      q = std::move(htb);
      break;
    }
  }

  std::map<std::pair<FlowId, std::uint32_t>, int> seen;
  Bytes total_in = tls::net::Bytes{0};
  int n = 0;
  for (FlowId f = 1; f <= 12; ++f) {
    for (std::uint32_t i = 0; i < 10; ++i) {
      Chunk c = make_chunk(f, static_cast<BandId>(f % 6), 64 * kKiB);
      c.index = i;
      q->enqueue(c);
      total_in += c.size;
      ++n;
    }
  }
  Bytes total_out = tls::net::Bytes{0};
  sim::Time now = tls::sim::Time{0};
  int served = 0;
  while (q->backlog_chunks() > 0 && served <= n) {
    DequeueResult r = q->dequeue(now);
    if (r.kind == DequeueResult::Kind::kChunk) {
      ++served;
      total_out += r.chunk.size;
      ++seen[{r.chunk.flow, r.chunk.index}];
      now += transmit_time(r.chunk.size, gbps(10));
    } else if (r.kind == DequeueResult::Kind::kWaitUntil) {
      now = r.retry_at;
    } else {
      break;
    }
  }
  EXPECT_EQ(served, n);
  EXPECT_EQ(total_out, total_in);
  for (const auto& [key, count] : seen) {
    (void)key;
    EXPECT_EQ(count, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Disciplines, QdiscConservation,
                         ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(info.param == 0 ? "prio"
                                                              : "htb");
                         });

// ---------------------------------------------------------------------------
// Priority dominance: in prio and work-conserving htb, a backlogged higher
// band is always served before a lower one.

TEST(PriorityDominance, PrioNeverServesLowerWhileHigherBacklogged) {
  PrioQdisc q(6);
  sim::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    q.enqueue(make_chunk(static_cast<FlowId>(rng.uniform_u64(20)),
                         static_cast<BandId>(rng.uniform_u64(6)), tls::net::Bytes{1000}));
  }
  // Track remaining backlog per band; every dequeue must come from the
  // highest nonempty band.
  while (q.backlog_chunks() > 0) {
    int highest = -1;
    for (int b = 0; b < 6; ++b) {
      if (q.band(b).backlog_chunks() > 0) {
        highest = b;
        break;
      }
    }
    DequeueResult r = q.dequeue(tls::sim::Time{0});
    ASSERT_EQ(r.kind, DequeueResult::Kind::kChunk);
    EXPECT_EQ(r.chunk.band, tls::net::BandId{highest});
  }
}

}  // namespace
}  // namespace tls::net
