// Differential tests of the per-flow and per-class tables on the chunk
// path, run under UBSan by tools/ci.sh step 1b:
//  - WdrrBand (slot pool, slot-index round, open-addressing FlowId index)
//    against the hash-map band it replaced (reference_tables.hpp), on
//    seeded enqueue/dequeue mixes: the same chunk served, and the same
//    backlog and active flow count, after every step;
//  - HtbQdisc (sorted class vector, running chunk count) against the
//    std::map htb it replaced, with classes added out of minor order and
//    changed and deleted under backlog, through the direct queue and
//    drain; after every step backlog_chunks() equals the per-class sum;
//  - Fabric's recycled flow slots, against a model of every flow started:
//    each FlowRecord, active_flows(), and a check that trips on a chunk
//    naming a retired slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "net/htb_qdisc.hpp"
#include "net/pfifo_qdisc.hpp"
#include "net/wdrr.hpp"
#include "reference_tables.hpp"
#include "simcore/rng.hpp"

namespace tls::net {
namespace {

Chunk chunk_of(FlowId flow, std::uint32_t index, Bytes size, double weight,
               BandId band = BandId{0}) {
  Chunk c;
  c.flow = flow;
  c.index = index;
  c.size = size;
  c.weight = weight;
  c.band = band;
  return c;
}

/// A WdrrBand and the reference band driven through the same steps.
class WdrrPair {
 public:
  explicit WdrrPair(Bytes quantum) : band_(quantum), ref_(quantum) {}

  void enqueue(FlowId flow, Bytes size, double weight) {
    Chunk c = chunk_of(flow, next_index_[flow]++, size, weight);
    band_.enqueue(c);
    ref_.enqueue(c);
    ++steps_;
    expect_same_state();
  }

  /// Serves one chunk from each; false once both are empty.
  bool dequeue() {
    std::optional<Chunk> got = band_.dequeue();
    std::optional<Chunk> want = ref_.dequeue();
    ++steps_;
    EXPECT_EQ(got.has_value(), want.has_value()) << "step " << steps_;
    if (got && want) {
      EXPECT_EQ(got->flow, want->flow) << "step " << steps_;
      EXPECT_EQ(got->index, want->index) << "step " << steps_;
      EXPECT_EQ(got->size, want->size) << "step " << steps_;
    }
    expect_same_state();
    return got.has_value();
  }

  void drain() {
    while (dequeue()) {
      if (testing::Test::HasFailure()) return;
    }
  }

  const WdrrBand& band() const { return band_; }

 private:
  void expect_same_state() {
    ASSERT_EQ(band_.backlog_chunks(), ref_.backlog_chunks())
        << "step " << steps_;
    ASSERT_EQ(band_.backlog_bytes(), ref_.backlog_bytes()) << "step " << steps_;
    ASSERT_EQ(band_.active_flows(), ref_.active_flows()) << "step " << steps_;
    ASSERT_EQ(band_.empty(), ref_.empty()) << "step " << steps_;
  }

  WdrrBand band_;
  reference::WdrrBand ref_;
  std::map<FlowId, std::uint32_t> next_index_;
  std::uint64_t steps_ = 0;
};

/// A chunk size: empty, tiny, MTU-sized, up to 160 KiB, or a full chunk.
Bytes draw_size(sim::Rng& rng) {
  switch (rng.uniform_u64(6)) {
    case 0: return Bytes{static_cast<std::int64_t>(rng.uniform_u64(2))};
    case 1: return Bytes{1500};
    case 2: return 128 * kKiB;
    default:
      return Bytes{static_cast<std::int64_t>(1 + rng.uniform_u64(160 * 1024))};
  }
}

/// A weight: at, just above, or below kMinWeight, or a lognormal-like draw.
double draw_weight(sim::Rng& rng) {
  switch (rng.uniform_u64(8)) {
    case 0: return WdrrBand::kMinWeight;
    case 1: return 1e-9;  // clamped up to kMinWeight
    case 2: return std::nextafter(WdrrBand::kMinWeight, 1.0);
    default: return rng.uniform(0.2, 4.0);
  }
}

TEST(WdrrDifferential, SeededMixesServeInTheReferenceOrder) {
  const Bytes quanta[] = {Bytes{1500}, 128 * kKiB,
                          Bytes{std::int64_t{1} << 62}};
  const std::uint64_t pools[] = {3, 40, 600};
  for (Bytes quantum : quanta) {
    for (std::uint64_t pool : pools) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(testing::Message() << "quantum " << quantum << ", "
                                        << pool << " flows, seed " << seed);
        sim::Rng rng(seed * 1000 + pool);
        WdrrPair pair(quantum);
        for (int step = 0; step < 6000 && !testing::Test::HasFailure();
             ++step) {
          if (rng.uniform() < 0.55) {
            pair.enqueue(rng.uniform_u64(pool), draw_size(rng),
                         draw_weight(rng));
          } else {
            pair.dequeue();
          }
        }
        pair.drain();
      }
    }
  }
}

TEST(WdrrDifferential, BurstsThatDrainReenterAtTheBackWithAFreshWeight) {
  // Each round, some flows send a burst at a new weight; the band is then
  // served part of the way or dry, so flows leave the round and come back.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    sim::Rng rng(seed);
    WdrrPair pair(Bytes{64 * 1024});
    for (int round = 0; round < 300 && !testing::Test::HasFailure(); ++round) {
      const std::uint64_t senders = 1 + rng.uniform_u64(12);
      for (std::uint64_t s = 0; s < senders; ++s) {
        const FlowId flow = rng.uniform_u64(16);
        const double weight = draw_weight(rng);
        const std::uint64_t burst = 1 + rng.uniform_u64(16);
        for (std::uint64_t k = 0; k < burst; ++k) {
          pair.enqueue(flow, draw_size(rng), weight);
        }
      }
      if (rng.uniform_u64(3) == 0) {
        pair.drain();
      } else {
        for (std::uint64_t k = rng.uniform_u64(40); k > 0; --k) pair.dequeue();
      }
    }
    pair.drain();
  }
}

TEST(WdrrDifferential, HugeQuantumServesInTheReferenceOrder) {
  // At a 2^62 quantum every top-up hits the cap (or a kMinWeight share of
  // it), so one top-up covers any chunk: service is plain round-robin.
  sim::Rng rng(62);
  WdrrPair pair(Bytes{std::int64_t{1} << 62});
  for (int step = 0; step < 4000 && !testing::Test::HasFailure(); ++step) {
    if (rng.uniform() < 0.5) {
      pair.enqueue(rng.uniform_u64(50), draw_size(rng),
                   rng.uniform_u64(2) == 0 ? WdrrBand::kMinWeight : 3.0);
    } else {
      pair.dequeue();
    }
  }
  pair.drain();
}

TEST(WdrrDifferential, ThousandsOfFlowsGrowAndShrinkTheIndex) {
  // Flow ids from every corner of the 64-bit range, backlogged by the
  // thousand so the index doubles several times, then served out in a
  // seeded interleaving with new arrivals, so deletions shift entries
  // back across long probe runs.
  std::vector<FlowId> ids;
  for (FlowId i = 0; i < 1500; ++i) ids.push_back(i);
  for (FlowId i = 1; i <= 1000; ++i) ids.push_back(i << 32);
  for (FlowId i = 0; i < 500; ++i) ids.push_back(UINT64_MAX - i);
  sim::Rng rng(4096);
  for (int i = 0; i < 1000; ++i) ids.push_back(rng());
  WdrrPair pair(128 * kKiB);
  for (FlowId id : ids) {
    pair.enqueue(id, Bytes{1500}, rng.uniform(0.5, 2.0));
    if (testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(pair.band().active_flows(), ids.size());
  for (int step = 0; step < 20000 && !testing::Test::HasFailure(); ++step) {
    if (rng.uniform() < 0.3) {
      pair.enqueue(ids[rng.uniform_u64(ids.size())], draw_size(rng),
                   draw_weight(rng));
    } else {
      pair.dequeue();
    }
  }
  pair.drain();
  EXPECT_EQ(pair.band().active_flows(), 0u);
}

TEST(WdrrDifferential, CollidingFlowsWrapAroundTheSmallestIndex) {
  // Ids whose multiplicative hash lands in the last entry of a 16-entry
  // index: at most 8 backlogged at once keeps the index at 16 entries, so
  // every probe run starts at the end and wraps to the front.
  std::vector<FlowId> ids;
  for (FlowId id = 0; ids.size() < 24; ++id) {
    if (((id * 0x9E3779B97F4A7C15ull) >> 60) == 15) ids.push_back(id);
  }
  sim::Rng rng(16);
  WdrrPair pair(Bytes{4096});
  for (int step = 0; step < 20000 && !testing::Test::HasFailure(); ++step) {
    if (pair.band().active_flows() < 8 && rng.uniform() < 0.5) {
      pair.enqueue(ids[rng.uniform_u64(ids.size())],
                   Bytes{static_cast<std::int64_t>(1 + rng.uniform_u64(8192))},
                   draw_weight(rng));
    } else {
      pair.dequeue();
    }
  }
  pair.drain();
}

/// An HtbQdisc and the reference htb driven through the same steps, with a
/// model of which class (0 = the direct queue) holds each queued chunk.
class HtbPair {
 public:
  HtbPair(Rate root, std::uint32_t default_minor)
      : htb_(root, default_minor), ref_(root, default_minor),
        default_minor_(default_minor) {}

  void add(const HtbClassConfig& c) {
    EXPECT_EQ(htb_.add_class(c), ref_.add_class(c)) << "add " << c.minor;
    check();
  }
  void change(const HtbClassConfig& c) {
    EXPECT_EQ(htb_.change_class(c), ref_.change_class(c))
        << "change " << c.minor;
    check();
  }
  void remove(std::uint32_t minor) {
    EXPECT_EQ(htb_.delete_class(minor), ref_.delete_class(minor))
        << "delete " << minor;
    check();
  }

  void enqueue(const Chunk& c) {
    std::uint32_t minor =
        c.band.valid() ? static_cast<std::uint32_t>(c.band.idx()) : 0;
    if (!htb_.has_class(minor)) {
      minor = default_minor_ != 0 && htb_.has_class(default_minor_)
                  ? default_minor_
                  : 0;
    }
    holder_[{c.flow, c.index}] = minor;
    ++chunks_[minor];
    bytes_[minor] += c.size;
    htb_.enqueue(c);
    ref_.enqueue(c);
    check();
  }

  void dequeue(sim::Time now) {
    DequeueResult got = htb_.dequeue(now);
    DequeueResult want = ref_.dequeue(now);
    ASSERT_EQ(got.kind, want.kind) << "at " << now;
    if (got.kind == DequeueResult::Kind::kChunk) {
      ASSERT_EQ(got.chunk.flow, want.chunk.flow) << "at " << now;
      ASSERT_EQ(got.chunk.index, want.chunk.index) << "at " << now;
      take(got.chunk);
    } else if (got.kind == DequeueResult::Kind::kWaitUntil) {
      ASSERT_EQ(got.retry_at, want.retry_at) << "at " << now;
    }
    check();
  }

  void drain() {
    std::vector<Chunk> got;
    std::vector<Chunk> want;
    htb_.drain(got);
    ref_.drain(want);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].flow, want[i].flow) << "drained chunk " << i;
      ASSERT_EQ(got[i].index, want[i].index) << "drained chunk " << i;
      take(got[i]);
    }
    check();
  }

  const HtbQdisc& htb() const { return htb_; }

 private:
  void take(const Chunk& c) {
    auto it = holder_.find({c.flow, c.index});
    ASSERT_NE(it, holder_.end()) << "served an unknown chunk";
    --chunks_[it->second];
    bytes_[it->second] -= c.size;
    holder_.erase(it);
  }

  /// backlog_chunks() is the per-class sum, each class holds the bytes
  /// the model puts there, and the reference agrees on both totals.
  void check() {
    std::size_t chunk_sum = 0;
    for (const auto& [minor, n] : chunks_) {
      chunk_sum += n;
      if (minor != 0 && htb_.has_class(minor)) {
        ASSERT_EQ(htb_.class_backlog(minor), bytes_[minor])
            << "class " << minor;
      }
    }
    ASSERT_EQ(htb_.backlog_chunks(), chunk_sum);
    ASSERT_EQ(htb_.backlog_chunks(), ref_.backlog_chunks());
    ASSERT_EQ(htb_.backlog_bytes(), ref_.backlog_bytes());
    ASSERT_EQ(htb_.empty(), chunk_sum == 0);
  }

  HtbQdisc htb_;
  reference::HtbQdisc ref_;
  std::uint32_t default_minor_;
  std::map<std::pair<FlowId, std::uint32_t>, std::uint32_t> holder_;
  std::map<std::uint32_t, std::size_t> chunks_;
  std::map<std::uint32_t, Bytes> bytes_;
};

HtbClassConfig draw_class(sim::Rng& rng, std::uint32_t minor) {
  HtbClassConfig c;
  c.minor = minor;
  c.rate = mbps(static_cast<double>(1 + rng.uniform_u64(4000)));
  c.ceil = rng.uniform_u64(3) == 0 ? c.rate : gbps(10);
  c.burst = Bytes{static_cast<std::int64_t>(1 + rng.uniform_u64(256 * 1024))};
  c.cburst = Bytes{static_cast<std::int64_t>(1 + rng.uniform_u64(256 * 1024))};
  c.prio = static_cast<int>(rng.uniform_u64(4));
  c.quantum = rng.uniform_u64(2) == 0 ? Bytes{1500} : 128 * kKiB;
  return c;
}

TEST(HtbDifferential, ClassChangesUnderBacklogServeInTheReferenceOrder) {
  // Minors 1..12 come and go in seeded order while traffic is queued;
  // bands 0 and 13..15 match no class, so their chunks take the default
  // class when it exists and the direct queue otherwise.
  for (std::uint32_t default_minor : {0u, 3u, 14u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "default " << default_minor
                                      << ", seed " << seed);
      sim::Rng rng(seed * 31 + default_minor);
      HtbPair pair(gbps(10), default_minor);
      sim::Time now{0};
      std::uint32_t next_index = 0;
      for (int step = 0; step < 8000 && !testing::Test::HasFailure();
           ++step) {
        const std::uint64_t op = rng.uniform_u64(100);
        const auto minor = static_cast<std::uint32_t>(1 + rng.uniform_u64(12));
        if (op < 6) {
          pair.add(draw_class(rng, minor));
        } else if (op < 9) {
          pair.change(draw_class(rng, minor));
        } else if (op < 12) {
          pair.remove(minor);
        } else if (op < 55) {
          const auto band = static_cast<std::int32_t>(rng.uniform_u64(16));
          pair.enqueue(chunk_of(rng.uniform_u64(64), next_index++,
                                draw_size(rng), draw_weight(rng),
                                BandId{band}));
        } else if (op < 99) {
          now += sim::Time{static_cast<std::int64_t>(rng.uniform_u64(60000))};
          pair.dequeue(now);
        } else {
          pair.drain();
        }
      }
      pair.drain();
    }
  }
}

TEST(HtbDifferential, ClassesAddedOutOfMinorOrderKeepTheirOrder) {
  // Equal classes (same prio, never served) tie on everything but minor,
  // so the first backlogged class in minor order goes first, whatever
  // order the classes were added in.
  HtbPair pair(gbps(10), 0);
  for (std::uint32_t minor : {9u, 2u, 7u, 1u, 12u, 4u}) {
    HtbClassConfig c;
    c.minor = minor;
    c.rate = gbps(1);
    c.ceil = gbps(10);
    pair.add(c);
  }
  std::uint32_t index = 0;
  for (std::int32_t band : {12, 7, 4, 9, 2, 1}) {
    pair.enqueue(chunk_of(static_cast<FlowId>(band), index++, Bytes{1500},
                          1.0, BandId{band}));
  }
  for (int i = 0; i < 6; ++i) pair.dequeue(sim::Time{0});
  EXPECT_TRUE(pair.htb().empty());
}

/// pfifo that keeps a copy of every chunk it is given.
class RecordingQdisc final : public Qdisc {
 public:
  void enqueue(const Chunk& chunk) override {
    seen.push_back(chunk);
    fifo_.enqueue(chunk);
  }
  DequeueResult dequeue(sim::Time now) override { return fifo_.dequeue(now); }
  Bytes backlog_bytes() const override { return fifo_.backlog_bytes(); }
  std::size_t backlog_chunks() const override {
    return fifo_.backlog_chunks();
  }
  void drain(std::vector<Chunk>& out) override { fifo_.drain(out); }

  std::vector<Chunk> seen;

 private:
  PfifoQdisc fifo_;
};

TEST(FabricDifferential, RecycledSlotsKeepEveryFlowRecord) {
  // 3000 seeded flows on 6 hosts, many in flight at once; a quarter of the
  // completions start a follow-up flow from inside their callback, when
  // the slot just retired is the next one handed out.
  struct Expected {
    FlowSpec spec;
    sim::Time start{};
    int completions = 0;
  };
  constexpr int kHosts = 6;
  sim::Simulator s(9);
  FabricConfig config;
  config.num_hosts = kHosts;
  Fabric fab(s, config);
  std::vector<RecordingQdisc*> recorders;
  for (int h = 0; h < kHosts; ++h) {
    auto q = std::make_unique<RecordingQdisc>();
    recorders.push_back(q.get());
    fab.egress(HostId{h}).set_qdisc(std::move(q));
  }
  sim::Rng rng(77);
  std::map<FlowId, Expected> flows;
  std::size_t in_flight = 0;  // started, nonzero, not yet complete
  std::size_t peak_in_flight = 0;
  std::uint64_t started = 0;

  std::function<void()> start_one;
  auto on_complete = [&](const FlowRecord& r) {
    auto it = flows.find(r.id);
    ASSERT_NE(it, flows.end()) << "record for unknown flow " << r.id;
    Expected& e = it->second;
    ++e.completions;
    EXPECT_EQ(e.completions, 1) << "flow " << r.id;
    EXPECT_EQ(r.spec.src, e.spec.src);
    EXPECT_EQ(r.spec.dst, e.spec.dst);
    EXPECT_EQ(r.spec.bytes, e.spec.bytes);
    EXPECT_EQ(r.spec.job_id, e.spec.job_id);
    EXPECT_EQ(r.spec.iteration, e.spec.iteration);
    EXPECT_EQ(r.spec.src_port, e.spec.src_port);
    EXPECT_EQ(r.start, e.start);
    EXPECT_EQ(r.end, s.now());
    if (r.spec.bytes > Bytes{0}) {
      EXPECT_GT(r.end, r.start);
      --in_flight;
    }
    EXPECT_EQ(fab.active_flows(), in_flight);
    if (started < 3000 && rng.uniform_u64(4) == 0) start_one();
  };
  start_one = [&] {
    FlowSpec f;
    f.src = HostId{static_cast<std::int32_t>(rng.uniform_u64(kHosts))};
    f.dst = HostId{static_cast<std::int32_t>(
        (f.src.idx() + 1 + static_cast<std::int32_t>(rng.uniform_u64(
                               kHosts - 1))) % kHosts)};
    f.bytes = rng.uniform_u64(50) == 0
                  ? Bytes{0}
                  : Bytes{static_cast<std::int64_t>(1 + rng.uniform_u64(
                                                            1'000'000))};
    f.job_id = static_cast<std::int32_t>(started % 97);
    f.iteration = static_cast<std::int64_t>(started);
    f.src_port = static_cast<std::uint16_t>(started % 65536);
    f.weight = rng.uniform(0.5, 2.0);
    const FlowId id = fab.start_flow(f, on_complete);
    ++started;
    flows[id] = Expected{f, s.now(), 0};
    if (f.bytes > Bytes{0}) {
      ++in_flight;
      peak_in_flight = std::max(peak_in_flight, in_flight);
    }
    EXPECT_EQ(fab.active_flows(), in_flight);
  };
  for (int i = 0; i < 2400; ++i) {
    s.schedule_at(sim::Time{static_cast<std::int64_t>(
                      rng.uniform_u64(400'000'000))},
                  [&] { start_one(); });
  }
  s.run();

  EXPECT_EQ(fab.active_flows(), 0u);
  EXPECT_EQ(fab.completed_flows(), started);
  EXPECT_EQ(flows.size(), started);
  for (const auto& [id, e] : flows) {
    EXPECT_EQ(e.completions, 1) << "flow " << id;
  }
  // Every chunk of a flow names one slot, and slots are recycled: none is
  // past the most flows ever in flight at once.
  std::map<FlowId, std::uint32_t> slot_of;
  std::uint32_t max_slot = 0;
  for (const RecordingQdisc* q : recorders) {
    for (const Chunk& c : q->seen) {
      auto [it, inserted] = slot_of.try_emplace(c.flow, c.flow_slot);
      EXPECT_EQ(it->second, c.flow_slot) << "flow " << c.flow;
      max_slot = std::max(max_slot, c.flow_slot);
    }
  }
  EXPECT_LT(max_slot, peak_in_flight);
  EXPECT_LT(peak_in_flight, started / 4);
}

/// Runs one 1000 B flow to completion, then delivers a copy of its chunk
/// again: into a retired slot, or into the same slot after `reuse` starts
/// a new flow there. `slot_offset` moves the copy's slot.
void deliver_stale_chunk(bool reuse, std::uint32_t slot_offset) {
  sim::Simulator s(1);
  FabricConfig config;
  config.num_hosts = 2;
  Fabric fab(s, config);
  auto q = std::make_unique<RecordingQdisc>();
  RecordingQdisc* recorder = q.get();
  fab.egress(HostId{0}).set_qdisc(std::move(q));
  FlowSpec f;
  f.src = HostId{0};
  f.dst = HostId{1};
  f.bytes = Bytes{1000};
  fab.start_flow(f, {});
  s.run();
  Chunk stale = recorder->seen.at(0);
  stale.flow_slot += slot_offset;
  if (reuse) fab.start_flow(f, {});
  fab.ingress(HostId{1}).arrive(stale);
  s.run();
}

TEST(FabricDifferentialDeathTest, ChunkNamingARetiredSlotTripsTheCheck) {
  EXPECT_DEATH(deliver_stale_chunk(false, 0),
               "delivered chunk of flow 1 names slot 0, which does not hold "
               "that flow");
  EXPECT_DEATH(deliver_stale_chunk(true, 0),
               "delivered chunk of flow 1 names slot 0, which does not hold "
               "that flow");
  EXPECT_DEATH(deliver_stale_chunk(false, 7),
               "delivered chunk of flow 1 names slot 7, which does not hold "
               "that flow");
}

}  // namespace
}  // namespace tls::net
