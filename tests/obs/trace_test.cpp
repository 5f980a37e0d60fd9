// Unit tests for the tls::obs trace layer: category parsing and filtering,
// the event cap, sink delivery and log retention, tracer/registry
// coupling, and per-run artifact path derivation used by tls::runtime
// sweeps.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics_registry.hpp"

namespace tls::obs {
namespace {

TEST(ParseCategories, AcceptsNamesAllAndNone) {
  std::uint32_t mask = 0;
  std::string err;
  ASSERT_TRUE(parse_categories("all", &mask, &err));
  EXPECT_EQ(mask, kAllCats);
  ASSERT_TRUE(parse_categories("none", &mask, &err));
  EXPECT_EQ(mask, 0u);
  ASSERT_TRUE(parse_categories("chunk,htb", &mask, &err));
  EXPECT_EQ(mask, static_cast<std::uint32_t>(Cat::kChunk) |
                      static_cast<std::uint32_t>(Cat::kHtb));
  // Spaces around tokens are shell-quoting artifacts; tolerate them.
  ASSERT_TRUE(parse_categories(" barrier , sample ", &mask, &err));
  EXPECT_EQ(mask, static_cast<std::uint32_t>(Cat::kBarrier) |
                      static_cast<std::uint32_t>(Cat::kSample));
}

TEST(ParseCategories, RejectsUnknownAndEmpty) {
  std::uint32_t mask = 0;
  std::string err;
  EXPECT_FALSE(parse_categories("qdsic", &mask, &err));
  EXPECT_NE(err.find("qdsic"), std::string::npos);
  // The error lists the known names so the CLI message is self-serve.
  EXPECT_NE(err.find("rotation"), std::string::npos);
  err.clear();
  EXPECT_FALSE(parse_categories("", &mask, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parse_categories(" , ,", &mask, &err));
}

TEST(ParseCategories, EveryCatRoundTripsThroughItsName) {
  for (Cat cat : {Cat::kChunk, Cat::kQdisc, Cat::kHtb, Cat::kRotation,
                  Cat::kBarrier, Cat::kStraggler, Cat::kSample, Cat::kFlow,
                  Cat::kIngress, Cat::kCompute}) {
    std::uint32_t mask = 0;
    ASSERT_TRUE(parse_categories(to_string(cat), &mask, nullptr));
    EXPECT_EQ(mask, static_cast<std::uint32_t>(cat)) << to_string(cat);
  }
}

TEST(ParseSampling, AcceptsTermsAndRejectsBadOnes) {
  std::uint32_t every[kNumCats] = {};
  std::string err;
  ASSERT_TRUE(parse_sampling("qdisc=16, htb=8", every, &err)) << err;
  EXPECT_EQ(every[cat_index(Cat::kQdisc)], 16u);
  EXPECT_EQ(every[cat_index(Cat::kHtb)], 8u);

  EXPECT_FALSE(parse_sampling("qdisc=0", every, &err));
  EXPECT_NE(err.find("qdisc=0"), std::string::npos);
  // A partial number is not 16, and 2^32 does not wrap to "keep every
  // event".
  for (const char* bad : {"qdisc=16x", "qdisc=4294967296"}) {
    err.clear();
    EXPECT_FALSE(parse_sampling(bad, every, &err)) << bad;
    EXPECT_NE(err.find(bad), std::string::npos) << err;
  }
  EXPECT_EQ(every[cat_index(Cat::kQdisc)], 16u);
  err.clear();
  EXPECT_FALSE(parse_sampling("", every, &err));
  EXPECT_EQ(err, "empty sampling spec");
}

TEST(ParseSampling, UnknownCategoryErrorListsTheKnownNames) {
  // The CLI message must be self-serve: a typo'd category name comes back
  // with the full list of valid ones (same helper parse_categories uses).
  std::uint32_t every[kNumCats] = {};
  std::string err;
  EXPECT_FALSE(parse_sampling("qdsic=16", every, &err));
  EXPECT_NE(err.find("qdsic=16"), std::string::npos);
  for (const char* name : {"chunk", "qdisc", "htb", "rotation", "barrier",
                           "straggler", "sample", "flow", "ingress",
                           "compute"}) {
    EXPECT_NE(err.find(name), std::string::npos) << name << " in: " << err;
  }
}

TEST(Tracer, MaskFiltersEventLog) {
  Tracer t(static_cast<std::uint32_t>(Cat::kBarrier));
  t.chunk_enqueue(tls::sim::Time{10}, tls::net::HostId{0}, -1, tls::net::BandId{1}, 42, 0, tls::net::Bytes{1000});  // filtered out
  t.barrier_enter(tls::sim::Time{20}, 3, 1, 5);                // recorded
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.events()[0].kind, EventKind::kBarrierEnter);
  EXPECT_EQ(t.events()[0].at, tls::sim::Time{20});
  EXPECT_EQ(t.events()[0].job, 3);
  EXPECT_EQ(t.events()[0].a, 1);  // worker id rides in `a`
  EXPECT_EQ(t.events()[0].b, 5);  // iteration rides in `b`
}

TEST(Tracer, InactiveWhenMaskEmptyAndNoRegistry) {
  Tracer t(0);
  EXPECT_FALSE(t.active());
  // Attaching a registry re-activates emission even with the event log off:
  // --metrics without --trace still needs counters updated.
  Registry r;
  t.set_registry(&r);
  EXPECT_TRUE(t.active());
}

TEST(Tracer, RegistryFedEvenForFilteredCategories) {
  Tracer t(0);
  Registry r;
  t.set_registry(&r);
  t.chunk_dequeue(tls::sim::Time{50}, tls::net::HostId{2}, -1, tls::net::BandId{0}, 7, 0, tls::net::Bytes{4096}, tls::sim::Time{30});
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(r.counters().at(MetricKey{"bytes_drained", 2, -1, 0}).value(),
            4096);
  EXPECT_EQ(r.histograms().at(MetricKey{"queue_wait_ns", 2, -1, 0}).count(),
            1);
}

TEST(Tracer, HtbSendSplitsGreenAndYellow) {
  Tracer t;
  Registry r;
  t.set_registry(&r);
  t.htb_send(tls::sim::Time{1}, tls::net::HostId{0}, tls::net::BandId{2}, tls::net::Bytes{100}, /*borrowed=*/false);
  t.htb_send(tls::sim::Time{2}, tls::net::HostId{0}, tls::net::BandId{2}, tls::net::Bytes{250}, /*borrowed=*/true);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.events()[0].kind, EventKind::kHtbGreen);
  EXPECT_EQ(t.events()[1].kind, EventKind::kHtbYellow);
  EXPECT_EQ(r.counters().at(MetricKey{"htb_green_bytes", 0, -1, 2}).value(),
            100);
  EXPECT_EQ(r.counters().at(MetricKey{"htb_yellow_bytes", 0, -1, 2}).value(),
            250);
}

TEST(Tracer, EventCapCountsDrops) {
  Tracer t;
  t.set_max_events(2);
  t.rotation(tls::sim::Time{1}, 0);
  t.rotation(tls::sim::Time{2}, 1);
  t.rotation(tls::sim::Time{3}, 2);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.dropped(), 1u);
}

// --- sink delivery ----------------------------------------------------------

/// Records every event its tracer delivers.
struct RecordingSink : TraceSink {
  std::vector<TraceEvent> seen;
  void on_event(const TraceEvent& e) override { seen.push_back(e); }
};

/// Keep-1-in-3 qdisc and 1-in-4 htb sampling under a 70-event cap: the
/// mixed stream below hits every filter (mask, sampling, cap).
void limit(Tracer& t) {
  t.set_sample_every(Cat::kQdisc, 3);
  t.set_sample_every(Cat::kHtb, 4);
  t.set_max_events(70);
}

void emit_mixed(Tracer& t) {
  using tls::net::BandId;
  using tls::net::Bytes;
  using tls::net::HostId;
  for (int i = 0; i < 40; ++i) {
    tls::sim::Time at{10 * i};
    t.band_service(at, HostId{i % 3}, BandId{i % 2}, Bytes{100 + i});
    t.chunk_enqueue(at, HostId{0}, i % 4, BandId{1}, i, i, Bytes{1000});
    t.htb_send(at, HostId{1}, BandId{0}, Bytes{i}, i % 2 == 0);
    t.straggler_lag(at, 1, i, tls::sim::Time{i});  // masked out below
    t.barrier_enter(at, 1, i, i / 4);
  }
}

void expect_same_events(const std::vector<TraceEvent>& got,
                        const std::vector<TraceEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const TraceEvent& g = got[i];
    const TraceEvent& w = want[i];
    EXPECT_TRUE(g.at == w.at && g.kind == w.kind && g.cat == w.cat &&
                g.host == w.host && g.job == w.job && g.band == w.band &&
                g.flow == w.flow && g.bytes == w.bytes && g.a == w.a &&
                g.b == w.b && g.dur == w.dur)
        << "event " << i << " differs";
  }
}

constexpr std::uint32_t kMixedMask =
    kAllCats & ~static_cast<std::uint32_t>(Cat::kStraggler);

TEST(TracerSinks, EverySinkSeesExactlyTheRetainedEventsInOrder) {
  Tracer retaining(kMixedMask);
  limit(retaining);
  emit_mixed(retaining);
  // The stream really exercised sampling and the cap.
  ASSERT_EQ(retaining.size(), 70u);
  ASSERT_GT(retaining.health().sampled_out_total, 0u);
  ASSERT_GT(retaining.health().dropped_total, 0u);

  Tracer streamed(kMixedMask);
  limit(streamed);
  RecordingSink first, second;
  streamed.add_sink(&first);
  streamed.add_sink(&second);
  emit_mixed(streamed);
  expect_same_events(first.seen, retaining.events());
  expect_same_events(second.seen, retaining.events());
  expect_same_events(streamed.events(), retaining.events());
}

TEST(TracerSinks, RetentionOffKeepsNoLogButCountsCapsAndDeliversTheSame) {
  Tracer retaining(kMixedMask);
  limit(retaining);
  emit_mixed(retaining);

  Tracer lean(kMixedMask);
  limit(lean);
  lean.set_retain_events(false);
  RecordingSink sink;
  lean.add_sink(&sink);
  emit_mixed(lean);

  EXPECT_TRUE(lean.events().empty());
  // The cap counts accepted events, not stored ones.
  EXPECT_EQ(lean.size(), retaining.size());
  const TraceHealth& got = lean.health();
  const TraceHealth& want = retaining.health();
  EXPECT_EQ(got.dropped_total, want.dropped_total);
  EXPECT_EQ(got.sampled_out_total, want.sampled_out_total);
  for (int i = 0; i < kNumCats; ++i) {
    EXPECT_EQ(got.dropped_by_cat[i], want.dropped_by_cat[i]) << i;
    EXPECT_EQ(got.sampled_out_by_cat[i], want.sampled_out_by_cat[i]) << i;
  }
  expect_same_events(sink.seen, retaining.events());
}

TEST(PerRunPath, InsertsLabelBeforeExtension) {
  EXPECT_EQ(per_run_path("out/trace.json", "seed3"), "out/trace.seed3.json");
  EXPECT_EQ(per_run_path("metrics.csv", "fifo"), "metrics.fifo.csv");
}

TEST(PerRunPath, SanitizesLabelSeparators) {
  // Sweep labels like "p3/tls-rr" must stay a single file, not a subdir.
  EXPECT_EQ(per_run_path("out/t.json", "p3/tls-rr"), "out/t.p3-tls-rr.json");
  EXPECT_EQ(per_run_path("t.json", "a b\\c"), "t.a-b-c.json");
}

TEST(PerRunPath, HandlesExtensionlessAndDottedDirs) {
  EXPECT_EQ(per_run_path("out/trace", "x"), "out/trace.x");
  // The dot in a directory name is not an extension.
  EXPECT_EQ(per_run_path("out.d/trace", "x"), "out.d/trace.x");
  EXPECT_EQ(per_run_path("", "x"), "");
  EXPECT_EQ(per_run_path("t.json", ""), "t.json");
}

TEST(PerRunPath, IdenticalLabelsCollideByDesign) {
  // Two RunPlan entries with the same label map to the same artifact path:
  // last writer wins, exactly like running tlsim twice with --trace to the
  // same file. Callers wanting distinct files must use distinct labels.
  EXPECT_EQ(per_run_path("out/t.json", "fifo"),
            per_run_path("out/t.json", "fifo"));
  // Sanitization can also induce collisions: labels differing only in the
  // separator character land on the same file.
  EXPECT_EQ(per_run_path("out/t.json", "p3/fifo"),
            per_run_path("out/t.json", "p3 fifo"));
}

TEST(PerRunPath, EmptyLabelLeavesBaseUntouched) {
  // A single-entry plan has no label; the artifact keeps its plain path
  // (no trailing dot, no mangling), extension or not.
  EXPECT_EQ(per_run_path("out/trace.json", ""), "out/trace.json");
  EXPECT_EQ(per_run_path("out/trace", ""), "out/trace");
}

}  // namespace
}  // namespace tls::obs
