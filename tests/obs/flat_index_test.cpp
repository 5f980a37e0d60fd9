// Differential tests of the attribution index's flat storage: a flow's
// chunk records and deliver chain are sorted vectors written through
// detail::slot_of and read through detail::find_sorted, standing in for
// the std::map<index, ChunkTrace> and std::map<time, index> they
// replaced. Seeded key sequences go through both, and contents, the last
// entry and every lookup must agree. An engine-vs-oracle test then covers
// the insert paths end to end (the oracle indexes with its own std::maps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/analysis_detail.hpp"
#include "obs/streaming.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"
#include "simcore/rng.hpp"

namespace tls::obs {
namespace {

using detail::ChunkTrace;
using detail::Delivery;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

void shuffle(std::vector<std::int64_t>& v, sim::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform_u64(i)]);
  }
}

/// Named key sequences: in order, reversed, shuffled, repeated, negative
/// and near the int64 bounds, each from `rng`.
std::vector<std::pair<std::string, std::vector<std::int64_t>>> key_sequences(
    sim::Rng& rng) {
  std::vector<std::pair<std::string, std::vector<std::int64_t>>> out;
  std::vector<std::int64_t> dense;
  for (std::int64_t i = 0; i < 64; ++i) dense.push_back(i);
  out.emplace_back("in order", dense);
  out.emplace_back("reversed",
                   std::vector<std::int64_t>(dense.rbegin(), dense.rend()));
  std::vector<std::int64_t> shuffled = dense;
  shuffle(shuffled, rng);
  out.emplace_back("shuffled", shuffled);
  std::vector<std::int64_t> repeated;
  for (int i = 0; i < 96; ++i) {
    repeated.push_back(static_cast<std::int64_t>(rng.uniform_u64(24)));
  }
  out.emplace_back("repeated", repeated);
  std::vector<std::int64_t> negative;
  for (std::int64_t i = -40; i < 8; ++i) negative.push_back(i);
  shuffle(negative, rng);
  out.emplace_back("negative", negative);
  std::vector<std::int64_t> bounds = {kMax,     kMin, kMax - 1, 0,
                                      kMin + 1, -1,   1,        kMax,
                                      kMin,     2,    kMax - 2, kMin + 2};
  shuffle(bounds, rng);
  out.emplace_back("bounds", bounds);
  return out;
}

/// Keys worth probing: every key fed, its neighbours and the bounds.
std::vector<std::int64_t> probes(const std::vector<std::int64_t>& keys) {
  std::vector<std::int64_t> out = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  for (std::int64_t k : keys) {
    out.push_back(k);
    if (k > kMin) out.push_back(k - 1);
    if (k < kMax) out.push_back(k + 1);
  }
  return out;
}

TEST(FlatIndexMutation, ChunkSlotsAgreeWithAMap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    for (const auto& [name, keys] : key_sequences(rng)) {
      SCOPED_TRACE(name + ", seed " + std::to_string(seed));
      std::vector<ChunkTrace> flat;
      std::map<std::int64_t, ChunkTrace> ref;
      std::int64_t step = 0;
      for (std::int64_t k : keys) {
        auto [c, inserted] = detail::slot_of(flat, &ChunkTrace::index, k);
        auto [it, ref_inserted] = ref.try_emplace(k);
        ASSERT_EQ(inserted, ref_inserted) << "key " << k;
        ASSERT_EQ(c->index, k);
        // Each write lands on the key's one record: the last step wins.
        c->bytes = ++step;
        it->second.bytes = step;
        if (inserted) {
          EXPECT_EQ(c->enq_at, sim::Time{-1});
        }
      }
      ASSERT_EQ(flat.size(), ref.size());
      auto f = flat.begin();
      for (const auto& [k, c] : ref) {
        EXPECT_EQ(f->index, k);
        EXPECT_EQ(f->bytes, c.bytes);
        ++f;
      }
      EXPECT_EQ(flat.back().index, std::prev(ref.end())->first);
      for (std::int64_t k : probes(keys)) {
        const ChunkTrace* c = detail::find_sorted(flat, &ChunkTrace::index, k);
        auto it = ref.find(k);
        ASSERT_EQ(c != nullptr, it != ref.end()) << "key " << k;
        if (c != nullptr) {
          EXPECT_EQ(c->bytes, it->second.bytes);
        }
      }
    }
  }
}

TEST(FlatIndexMutation, DeliveryChainAgreesWithAMap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    std::vector<std::pair<std::string, std::vector<std::int64_t>>> runs;
    std::vector<std::int64_t> rising, equal, falling, mixed;
    std::int64_t t = 1000;
    for (int i = 0; i < 48; ++i) {
      t += static_cast<std::int64_t>(rng.uniform_u64(3));  // ties included
      rising.push_back(t);
      equal.push_back(777);
      falling.push_back(5000 - t);
      mixed.push_back(static_cast<std::int64_t>(rng.uniform_u64(16)) - 4);
    }
    runs.emplace_back("rising", rising);
    runs.emplace_back("equal", equal);
    runs.emplace_back("falling", falling);
    runs.emplace_back("mixed", mixed);
    for (const auto& [name, instants] : runs) {
      SCOPED_TRACE(name + ", seed " + std::to_string(seed));
      std::vector<Delivery> flat;
      std::map<sim::Time, std::int64_t> ref;
      std::int64_t chunk = 0;
      for (std::int64_t at : instants) {
        ++chunk;
        detail::slot_of(flat, &Delivery::at, sim::Time{at}).first->chunk =
            chunk;
        ref[sim::Time{at}] = chunk;
        ASSERT_EQ(flat.back().at, std::prev(ref.end())->first);
        ASSERT_EQ(flat.back().chunk, std::prev(ref.end())->second);
      }
      ASSERT_EQ(flat.size(), ref.size());
      auto f = flat.begin();
      for (const auto& [at, c] : ref) {
        EXPECT_EQ(f->at, at);
        EXPECT_EQ(f->chunk, c);
        ++f;
      }
      for (std::int64_t at : probes(instants)) {
        const Delivery* d =
            detail::find_sorted(flat, &Delivery::at, sim::Time{at});
        auto it = ref.find(sim::Time{at});
        ASSERT_EQ(d != nullptr, it != ref.end()) << "instant " << at;
        if (d != nullptr) {
          EXPECT_EQ(d->chunk, it->second);
        }
      }
    }
  }
}

/// One iteration of job 0 (worker on host 1, PS on host 0) whose model
/// flow's chunk events arrive out of index order, repeat a chunk's
/// dequeue, and deliver two chunks at one instant; the critical path
/// follows the chunk delivered last at that instant. Job 1 dequeues and
/// delivers inside the model chunks' windows, so both blame sides are
/// nonzero.
std::vector<TraceEvent> out_of_order_chunk_trace() {
  Tracer t;
  const net::HostId ps{0};
  const net::HostId w{1};
  const std::int64_t grad = 11;
  const std::int64_t model = 12;
  const std::int64_t foreign = 21;
  const net::Bytes kb{1000};
  auto at = [](std::int64_t ns) { return sim::Time{ns}; };
  t.worker_compute(at(0), w, 0, /*worker=*/0, 0, at(100));
  t.barrier_enter(at(50), 0, /*worker=*/0, 0);
  t.flow_start(at(100), w, ps, 0, /*kind_ordinal=*/1, grad, kb, 0);
  t.chunk_enqueue(at(100), w, 0, net::BandId{0}, grad, 0, kb);
  t.chunk_dequeue(at(150), w, 0, net::BandId{0}, grad, 0, kb, at(50));
  t.ingress_arrive(at(250), ps, 0, net::BandId{0}, grad, 0, kb);
  t.ingress_deliver(at(300), ps, 0, net::BandId{0}, grad, 0, kb, at(0),
                    at(50));
  t.flow_end(at(300), w, ps, 0, 1, grad, kb, 0, at(200));
  t.ps_aggregate(at(300), ps, 0, /*shard=*/0, 0, at(200));
  t.flow_start(at(500), ps, w, 0, /*kind_ordinal=*/0, model, kb, 0);
  t.chunk_enqueue(at(500), ps, 0, net::BandId{0}, model, 1, kb);  // 1 first
  t.chunk_enqueue(at(500), ps, 0, net::BandId{0}, model, 0, kb);
  t.flow_start(at(510), ps, w, 1, /*kind_ordinal=*/1, foreign, kb, 0);
  t.chunk_enqueue(at(510), ps, 1, net::BandId{2}, foreign, 0, kb);
  t.chunk_dequeue(at(515), ps, 1, net::BandId{2}, foreign, 0, kb, at(5));
  t.chunk_dequeue(at(520), ps, 0, net::BandId{0}, model, 1, kb, at(20));
  t.chunk_dequeue(at(540), ps, 0, net::BandId{0}, model, 0, kb, at(40));
  t.ingress_arrive(at(590), w, 1, net::BandId{2}, foreign, 0, kb);
  t.ingress_arrive(at(600), w, 0, net::BandId{0}, model, 1, kb);
  t.ingress_arrive(at(610), w, 0, net::BandId{0}, model, 0, kb);
  t.ingress_deliver(at(650), w, 1, net::BandId{2}, foreign, 0, kb, at(20),
                    at(60));
  t.flow_end(at(650), ps, w, 1, 1, foreign, kb, 0, at(140));
  // Two deliveries at 700: chunk 1, delivered last, admits chunk 2.
  t.ingress_deliver(at(700), w, 0, net::BandId{0}, model, 0, kb, at(50),
                    at(90));
  t.ingress_deliver(at(700), w, 0, net::BandId{0}, model, 1, kb, at(60),
                    at(100));
  t.chunk_enqueue(at(700), ps, 0, net::BandId{0}, model, 2, kb);
  t.chunk_dequeue(at(750), ps, 0, net::BandId{0}, model, 2, kb, at(50));
  t.chunk_dequeue(at(760), ps, 0, net::BandId{0}, model, 2, kb, at(60));
  t.ingress_arrive(at(800), w, 0, net::BandId{0}, model, 2, kb);
  t.ingress_deliver(at(900), w, 0, net::BandId{0}, model, 2, kb, at(40),
                    at(100));
  t.flow_end(at(900), ps, w, 0, 0, model, kb, 0, at(400));
  t.barrier_release(at(900), 0, /*worker=*/0, 0, at(850));
  return t.events();
}

TEST(FlatIndexMutation, EngineMatchesOracleOnOutOfOrderChunks) {
  const std::vector<TraceEvent> events = out_of_order_chunk_trace();
  StreamingAnalyzer analyzer;
  for (const TraceEvent& e : events) analyzer.ingest(e);
  EXPECT_FALSE(analyzer.out_of_order());
  const RunReport streaming = analyzer.finish();
  const RunReport batch = oracle::analyze(events);
  EXPECT_EQ(report_text(streaming), report_text(batch));
  EXPECT_EQ(report_csv(streaming), report_csv(batch));
  EXPECT_EQ(report_json(streaming), report_json(batch));

  // The walk took chunk 2, then chunk 1 (the later delivery at 700), and
  // reached the flow start with nothing left to `other`.
  ASSERT_EQ(batch.iterations.size(), 1u);
  const IterationReport& r = batch.iterations.front();
  EXPECT_EQ(r.other_ns, sim::Time{0});
  EXPECT_EQ(r.fan_in_wait_ns, sim::Time{40 + 60});
  EXPECT_EQ(r.egress_queue_ns, sim::Time{60 + 20 + 50});
  ASSERT_EQ(batch.jobs.size(), 1u);
  EXPECT_EQ(batch.jobs.front().cross_job_blame_bytes, 1000);
  EXPECT_EQ(batch.jobs.front().cross_job_ingress_blame_bytes, 1000);
}

}  // namespace
}  // namespace tls::obs
