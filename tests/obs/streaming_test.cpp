// StreamingAnalyzer tests: byte-identical equivalence with the batch
// oracle (hand-built multi-iteration traces, a real contended simulation
// with a golden JSON, mid-stream snapshots), bounded retention (peak
// retained records independent of trace length), and the out-of-order
// flag.
//
// Regenerate the golden after an intentional format or scenario change:
//   TLS_REGOLDEN=1 ./test_obs --gtest_filter='StreamingGolden.*'
#include "obs/streaming.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "obs/analysis.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"

namespace tls::obs {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// One synchronous iteration of `job` starting at `base`: compute on the
/// worker host, gradient flow to the PS (host 0), aggregation, model flow
/// back, release — with foreign-job and background dequeues landing inside
/// the model chunk's egress window so blame pruning is exercised too.
void emit_iteration(Tracer& t, std::int32_t job, std::int64_t iter,
                    sim::Time base) {
  net::HostId ps{0};
  net::HostId w{1 + job};
  std::int64_t grad = 100000 + iter * 100 + job * 10 + 1;
  std::int64_t model = 100000 + iter * 100 + job * 10 + 2;
  auto at = [base](std::int64_t off) { return base + sim::Time{off}; };
  t.worker_compute(at(0), w, job, /*worker=*/0, iter, sim::Time{200});
  t.barrier_enter(at(100), job, /*worker=*/0, iter);
  t.flow_start(at(200), w, ps, job, /*kind_ordinal=*/1, grad,
               net::Bytes{5000}, iter);
  t.chunk_enqueue(at(200), w, job, net::BandId{0}, grad, 0, net::Bytes{5000});
  t.chunk_dequeue(at(250), w, job, net::BandId{0}, grad, 0, net::Bytes{5000},
                  sim::Time{50});
  t.ingress_arrive(at(350), ps, job, net::BandId{0}, grad, 0,
                   net::Bytes{5000});
  t.ingress_deliver(at(400), ps, job, net::BandId{0}, grad, 0,
                    net::Bytes{5000}, sim::Time{0}, sim::Time{50});
  t.flow_end(at(400), w, ps, job, 1, grad, net::Bytes{5000}, iter,
             sim::Time{200});
  t.ps_aggregate(at(400), ps, job, /*shard=*/0, iter, sim::Time{100});
  t.flow_start(at(500), ps, w, job, /*kind_ordinal=*/0, model,
               net::Bytes{6000}, iter);
  t.chunk_enqueue(at(500), ps, job, net::BandId{0}, model, 0,
                  net::Bytes{6000});
  // Culprit traffic draining ahead of the model chunk inside its egress
  // window: a foreign-job flow and background traffic, each with the full
  // start/enqueue/dequeue/end lifecycle a real fabric emits — retirement
  // of culprit state is part of what the retention tests measure.
  std::int64_t foreign = 900000 + iter * 10 + job;
  std::int64_t bg = 910000 + iter * 10 + job;
  t.flow_start(at(540), ps, w, 1 - job, /*kind_ordinal=*/1, foreign,
               net::Bytes{7777}, iter);
  t.chunk_enqueue(at(540), ps, 1 - job, net::BandId{2}, foreign, 0,
                  net::Bytes{7777});
  t.chunk_dequeue(at(550), ps, 1 - job, net::BandId{2}, foreign, 0,
                  net::Bytes{7777}, sim::Time{10});
  t.flow_end(at(560), ps, w, 1 - job, 1, foreign, net::Bytes{7777}, iter,
             sim::Time{20});
  t.flow_start(at(590), ps, w, /*job=*/-1, /*kind_ordinal=*/2, bg,
               net::Bytes{1111}, -1);
  t.chunk_enqueue(at(590), ps, -1, net::BandId{2}, bg, 0, net::Bytes{1111});
  t.chunk_dequeue(at(600), ps, /*job=*/-1, net::BandId{2}, bg, 0,
                  net::Bytes{1111}, sim::Time{10});
  t.flow_end(at(610), ps, w, -1, 2, bg, net::Bytes{1111}, -1, sim::Time{20});
  t.chunk_dequeue(at(700), ps, job, net::BandId{0}, model, 0,
                  net::Bytes{6000}, sim::Time{200});
  t.ingress_arrive(at(900), w, job, net::BandId{0}, model, 0,
                   net::Bytes{6000});
  // Fan-in contention at the receiving worker: the foreign-job and
  // background chunks are delivered ahead of the model chunk inside its
  // arrive..deliver window, exercising the ingress blame lane (and its
  // retirement) in both engines.
  t.ingress_arrive(at(920), w, 1 - job, net::BandId{2}, foreign, 0,
                   net::Bytes{7777});
  t.ingress_deliver(at(960), w, 1 - job, net::BandId{2}, foreign, 0,
                    net::Bytes{7777}, sim::Time{10}, sim::Time{40});
  t.ingress_arrive(at(980), w, /*job=*/-1, net::BandId{2}, bg, 0,
                   net::Bytes{1111});
  t.ingress_deliver(at(1000), w, /*job=*/-1, net::BandId{2}, bg, 0,
                    net::Bytes{1111}, sim::Time{5}, sim::Time{20});
  t.ingress_deliver(at(1100), w, job, net::BandId{0}, model, 0,
                    net::Bytes{6000}, sim::Time{100}, sim::Time{200});
  t.flow_end(at(1100), ps, w, job, 0, model, net::Bytes{6000}, iter,
             sim::Time{600});
  t.barrier_release(at(1100), job, /*worker=*/0, iter, sim::Time{1000});
}

/// Streams `events` through a fresh analyzer.
RunReport stream(const std::vector<TraceEvent>& events) {
  StreamingAnalyzer analyzer;
  for (const TraceEvent& e : events) analyzer.ingest(e);
  return analyzer.finish();
}

/// A jobs x iters synthetic run, one job block after another in strictly
/// increasing time (the simulator's append order).
std::vector<TraceEvent> synthetic_trace(int jobs, int iters) {
  Tracer t;
  sim::Time base{0};
  for (int k = 0; k < iters; ++k) {
    for (int j = 0; j < jobs; ++j) {
      emit_iteration(t, j, k, base);
      base = base + sim::Time{5000};
    }
  }
  return t.events();
}

TEST(Streaming, MatchesBatchOnHandBuiltTrace) {
  std::vector<TraceEvent> events = synthetic_trace(2, 6);
  RunReport batch = oracle::analyze(events);
  RunReport streaming = stream(events);
  EXPECT_EQ(report_text(batch), report_text(streaming));
  EXPECT_EQ(report_csv(batch), report_csv(streaming));
  EXPECT_EQ(report_json(batch), report_json(streaming));
  // The fixture contends on both sides of the port — the equivalence
  // above must be witnessing nonzero blame on each, not trivially empty.
  ASSERT_EQ(batch.jobs.size(), 2u);
  for (const JobSummary& js : batch.jobs) {
    EXPECT_GT(js.cross_job_blame_bytes, 0) << "job " << js.job;
    EXPECT_GT(js.cross_job_ingress_blame_bytes, 0) << "job " << js.job;
  }
}

TEST(Streaming, MatchesBatchWithStragglerIterations) {
  // Releases whose enters were filtered out of the trace finalize at
  // finish(), exactly like batch: strip every kBarrierEnter.
  std::vector<TraceEvent> events;
  for (const TraceEvent& e : synthetic_trace(2, 4)) {
    if (e.kind != EventKind::kBarrierEnter) events.push_back(e);
  }
  RunReport batch = oracle::analyze(events);
  RunReport streaming = stream(events);
  ASSERT_FALSE(batch.iterations.empty());
  EXPECT_EQ(report_json(batch), report_json(streaming));
}

TEST(Streaming, SnapshotMidStreamThenFinishStillMatchesBatch) {
  std::vector<TraceEvent> events = synthetic_trace(2, 8);
  StreamingAnalyzer analyzer;
  std::size_t half = events.size() / 2;
  for (std::size_t i = 0; i < half; ++i) analyzer.ingest(events[i]);

  RunReport snap = analyzer.snapshot();
  EXPECT_GT(snap.iterations.size(), 0u);
  EXPECT_LT(snap.iterations.size(), static_cast<std::size_t>(16));
  for (const IterationReport& r : snap.iterations) {
    EXPECT_EQ(r.compute_ns + r.egress_queue_ns + r.serialization_ns +
                  r.fan_in_ns + r.other_ns,
              r.barrier_wait);
  }

  for (std::size_t i = half; i < events.size(); ++i)
    analyzer.ingest(events[i]);
  EXPECT_EQ(report_json(oracle::analyze(events)),
            report_json(analyzer.finish()));
}

TEST(Streaming, PeakRetentionIndependentOfTraceLength) {
  // The bounded-memory claim: 4x the iterations must not move the
  // high-water mark of retained records (the in-flight window is the same
  // two-iterations-per-job shape regardless of run length).
  auto peak = [](int iters, std::size_t* total_events) {
    std::vector<TraceEvent> events = synthetic_trace(2, iters);
    *total_events = events.size();
    StreamingAnalyzer analyzer;
    for (const TraceEvent& e : events) analyzer.ingest(e);
    RunReport report = analyzer.finish();
    EXPECT_EQ(report.iterations.size(), static_cast<std::size_t>(2 * iters));
    return analyzer.peak_retained_records();
  };
  std::size_t events_20 = 0, events_80 = 0;
  std::size_t peak_20 = peak(20, &events_20);
  std::size_t peak_80 = peak(80, &events_80);
  EXPECT_EQ(peak_20, peak_80)
      << "retention grew with trace length - a leak in the retirement rules";
  // And the peak is a small fraction of what batch retains (every event).
  EXPECT_LT(peak_80, events_80 / 4);
  EXPECT_GT(events_80, events_20 * 3);
}

TEST(Streaming, FlagsOutOfOrderInput) {
  StreamingAnalyzer analyzer;
  Tracer t;
  t.barrier_enter(sim::Time{100}, 0, 0, 0);
  t.barrier_enter(sim::Time{50}, 0, 0, 1);  // time went backwards
  for (const TraceEvent& e : t.events()) analyzer.ingest(e);
  EXPECT_TRUE(analyzer.out_of_order());
}

TEST(Streaming, CarriesHealthIntoReport) {
  std::vector<TraceEvent> events = synthetic_trace(1, 2);
  StreamingAnalyzer analyzer;
  for (const TraceEvent& e : events) analyzer.ingest(e);
  TraceHealth h;
  h.dropped_total = 7;
  h.dropped_by_cat[cat_index(Cat::kQdisc)] = 7;
  analyzer.set_health(h);
  RunReport report = analyzer.finish();
  EXPECT_EQ(report.health.dropped_total, 7u);
  std::string text = report_text(report);
  EXPECT_NE(text.find("WARNING: trace is incomplete"), std::string::npos);
  std::string json = report_json(report);
  EXPECT_NE(json.find("\"trace_health\":{\"dropped_total\":7"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Real-simulation witness: a contended 2-host / 2-job run, golden JSON
// pinned, batch and streaming byte-identical on it.

TEST(StreamingGolden, ContendedRunJsonIdenticalBatchVsStreaming) {
  fs::path dir = fs::path(testing::TempDir()) / "tls_streaming_golden";
  fs::remove_all(dir);
  fs::create_directories(dir);

  exp::ExperimentConfig c;
  c.num_hosts = 2;
  c.workload.num_jobs = 2;
  c.workload.workers_per_job = 1;
  c.workload.global_step_target = 6;  // 6 iterations x 1 worker
  c.placement = cluster::table1(1, 2);
  c.controller.policy = core::PolicyKind::kFifo;
  c.seed = 1;
  c.obs.trace_csv_path = (dir / "trace.csv").string();
  // The in-process JSON is produced by the StreamingAnalyzer inside
  // run_experiment — one of the two sides of the equivalence witness.
  c.obs.report_json_path = (dir / "report.json").string();
  exp::ExperimentResult result = exp::run_experiment(c);
  ASSERT_TRUE(result.all_finished);

  std::vector<TraceEvent> events;
  std::string error;
  ASSERT_TRUE(oracle::read_trace_csv_file((dir / "trace.csv").string(),
                                          &events, nullptr, &error))
      << error;
  std::string batch_json = report_json(oracle::analyze(events));
  std::string streaming_json = read_file(dir / "report.json");
  ASSERT_FALSE(streaming_json.empty());
  EXPECT_EQ(batch_json, streaming_json)
      << "batch and streaming attribution diverged";

  fs::path golden = fs::path(TLS_OBS_GOLDEN_DIR) / "report_2h2j.json";
  if (std::getenv("TLS_REGOLDEN") != nullptr) {
    fs::create_directories(golden.parent_path());
    std::ofstream out(golden, std::ios::binary);
    out << streaming_json;
    GTEST_SKIP() << "regenerated " << golden;
  }
  std::string want = read_file(golden);
  ASSERT_FALSE(want.empty())
      << "missing golden " << golden << " — regenerate with TLS_REGOLDEN=1";
  EXPECT_EQ(streaming_json, want)
      << "attribution JSON drifted; if intentional, regenerate the golden "
         "with TLS_REGOLDEN=1";
}

}  // namespace
}  // namespace tls::obs
