// End-to-end attribution-report tests on real simulations: the golden
// report for a contended 5-host/2-job scenario, exact conservation of the
// critical-path decomposition, blame-byte cross checks, report artifact
// determinism (repeated runs and serial-vs-parallel RunSets), the
// machine-checked FIFO-vs-TLs-One cross-job-blame elimination, and the
// tlsreport CLI driven in-process. Reports rebuilt from a trace CSV come
// from the batch oracle; the CLI's report and diff bytes are pinned to it.
//
// Regenerate the golden after an intentional format or scenario change:
//   TLS_REGOLDEN=1 ./test_obs --gtest_filter='ReportGolden.*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "exp/experiment.hpp"
#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/report_cli.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"
#include "runtime/runner.hpp"

namespace tls {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The paper's contention shape scaled to test size: 2 jobs × 4 workers on
/// 5 hosts, every PS on host 0 (Table I #1), 10 sync iterations. Under
/// FIFO both jobs accumulate MB-scale cross-job blame at the shared PS
/// host; under TLs-One the prioritized job's cross-job blame is exactly 0.
exp::ExperimentConfig contended_scenario(core::PolicyKind policy) {
  exp::ExperimentConfig c;
  c.num_hosts = 5;
  c.workload.num_jobs = 2;
  c.workload.workers_per_job = 4;
  c.workload.global_step_target = 4 * 10;  // 10 iterations x 4 workers
  c.placement = cluster::table1(1, 2);
  c.controller.policy = policy;
  c.seed = 1;
  return c;
}

/// The batch oracle's report on a trace CSV.
obs::RunReport oracle_report(const std::string& trace_csv) {
  std::vector<obs::TraceEvent> events;
  std::string error;
  EXPECT_TRUE(obs::oracle::read_trace_csv_file(trace_csv, &events, nullptr,
                                               &error))
      << error;
  return obs::oracle::analyze(events);
}

/// Runs `config` with report + trace-CSV artifacts under `dir`; returns the
/// oracle's analysis rebuilt offline from the trace CSV (exercising the
/// reader).
obs::RunReport run_and_analyze(exp::ExperimentConfig config,
                               const fs::path& dir) {
  fs::create_directories(dir);
  config.obs.trace_csv_path = (dir / "trace.csv").string();
  config.obs.report_path = (dir / "report.txt").string();
  config.obs.report_csv_path = (dir / "report.csv").string();
  config.obs.report_json_path = (dir / "report.json").string();
  exp::ExperimentResult result = exp::run_experiment(config);
  EXPECT_TRUE(result.all_finished);
  return oracle_report(config.obs.trace_csv_path);
}

TEST(ReportGolden, ContendedFifoReportMatchesGolden) {
  fs::path dir = fs::path(testing::TempDir()) / "tls_report_golden";
  fs::remove_all(dir);
  fs::create_directories(dir);
  exp::ExperimentConfig c = contended_scenario(core::PolicyKind::kFifo);
  c.obs.report_path = (dir / "report.txt").string();
  exp::ExperimentResult result = exp::run_experiment(c);
  ASSERT_TRUE(result.all_finished);
  std::string got = read_file(dir / "report.txt");
  ASSERT_FALSE(got.empty());

  fs::path golden = fs::path(TLS_OBS_GOLDEN_DIR) / "report_5h2j_fifo.txt";
  if (std::getenv("TLS_REGOLDEN") != nullptr) {
    fs::create_directories(golden.parent_path());
    std::ofstream out(golden, std::ios::binary);
    out << got;
    GTEST_SKIP() << "regenerated " << golden;
  }
  std::string want = read_file(golden);
  ASSERT_FALSE(want.empty())
      << "missing golden " << golden << " — regenerate with TLS_REGOLDEN=1";
  EXPECT_EQ(got, want)
      << "attribution report drifted; if intentional, regenerate the golden "
         "with TLS_REGOLDEN=1";
}

TEST(ReportConservation, SegmentsSumExactlyToBarrierWait) {
  fs::path dir = fs::path(testing::TempDir()) / "tls_report_conserve";
  fs::remove_all(dir);
  obs::RunReport report =
      run_and_analyze(contended_scenario(core::PolicyKind::kFifo), dir);
  ASSERT_FALSE(report.iterations.empty());

  std::map<std::int32_t, obs::JobSummary> totals;
  for (const obs::IterationReport& r : report.iterations) {
    // The five buckets partition the barrier window with integer exactness.
    EXPECT_EQ(r.compute_ns + r.egress_queue_ns + r.serialization_ns +
                  r.fan_in_ns + r.other_ns,
              r.barrier_wait)
        << "job " << r.job << " iter " << r.iteration;
    EXPECT_EQ(r.release_at - r.enter_at, r.barrier_wait);

    // Segments tile [enter, release]: contiguous, forward-ordered, and
    // their per-kind sums reproduce the bucket fields.
    ASSERT_FALSE(r.segments.empty());
    EXPECT_EQ(r.segments.front().begin, r.enter_at);
    EXPECT_EQ(r.segments.back().end, r.release_at);
    sim::Time by_kind[5] = {tls::sim::Time{0}, tls::sim::Time{0}, tls::sim::Time{0}, tls::sim::Time{0}, tls::sim::Time{0}};
    for (std::size_t i = 0; i < r.segments.size(); ++i) {
      const obs::PathSegment& s = r.segments[i];
      EXPECT_LT(s.begin, s.end);
      if (i > 0) {
        EXPECT_EQ(r.segments[i - 1].end, s.begin);
      }
      by_kind[static_cast<int>(s.kind)] += s.end - s.begin;
    }
    EXPECT_EQ(by_kind[0], r.compute_ns);
    EXPECT_EQ(by_kind[1], r.egress_queue_ns);
    EXPECT_EQ(by_kind[2], r.serialization_ns);
    EXPECT_EQ(by_kind[3], r.fan_in_ns);
    EXPECT_EQ(by_kind[4], r.other_ns);

    // The fan-in sub-attribution partitions fan_in exactly, and the
    // per-segment split points reproduce the iteration fields.
    EXPECT_EQ(r.fan_in_wait_ns + r.fan_in_ser_ns, r.fan_in_ns)
        << "job " << r.job << " iter " << r.iteration;
    sim::Time wait_from_segments{0};
    for (const obs::PathSegment& s : r.segments) {
      if (s.kind == obs::SegmentKind::kFanIn) {
        ASSERT_GE(s.fan_in_wait_end, s.begin);
        ASSERT_LE(s.fan_in_wait_end, s.end);
        wait_from_segments += s.fan_in_wait_end - s.begin;
      } else {
        EXPECT_EQ(s.fan_in_wait_end, tls::sim::Time{-1});
      }
    }
    EXPECT_EQ(wait_from_segments, r.fan_in_wait_ns);

    obs::JobSummary& t = totals[r.job];
    t.total_wait_ns += r.barrier_wait;
    t.compute_ns += r.compute_ns;
    t.egress_queue_ns += r.egress_queue_ns;
    t.serialization_ns += r.serialization_ns;
    t.fan_in_ns += r.fan_in_ns;
    t.other_ns += r.other_ns;
    t.fan_in_wait_ns += r.fan_in_wait_ns;
    t.fan_in_ser_ns += r.fan_in_ser_ns;
    for (const obs::BlameEntry& b : r.blame) {
      EXPECT_GT(b.bytes, 0);
      const bool egress = b.side == obs::BlameSide::kEgress;
      if (b.culprit_job == r.job) {
        (egress ? t.self_blame_bytes : t.self_ingress_blame_bytes) += b.bytes;
      } else {
        (egress ? t.cross_job_blame_bytes : t.cross_job_ingress_blame_bytes) +=
            b.bytes;
      }
    }
  }
  // The per-job rollups are exactly the sums of their iterations.
  ASSERT_EQ(report.jobs.size(), totals.size());
  for (const obs::JobSummary& js : report.jobs) {
    const obs::JobSummary& t = totals.at(js.job);
    EXPECT_EQ(js.total_wait_ns, t.total_wait_ns) << "job " << js.job;
    EXPECT_EQ(js.compute_ns, t.compute_ns);
    EXPECT_EQ(js.egress_queue_ns, t.egress_queue_ns);
    EXPECT_EQ(js.serialization_ns, t.serialization_ns);
    EXPECT_EQ(js.fan_in_ns, t.fan_in_ns);
    EXPECT_EQ(js.other_ns, t.other_ns);
    EXPECT_EQ(js.cross_job_blame_bytes, t.cross_job_blame_bytes);
    EXPECT_EQ(js.self_blame_bytes, t.self_blame_bytes);
    EXPECT_EQ(js.fan_in_wait_ns, t.fan_in_wait_ns);
    EXPECT_EQ(js.fan_in_ser_ns, t.fan_in_ser_ns);
    EXPECT_EQ(js.cross_job_ingress_blame_bytes,
              t.cross_job_ingress_blame_bytes);
    EXPECT_EQ(js.self_ingress_blame_bytes, t.self_ingress_blame_bytes);
  }
}

TEST(ReportConservation, BlameBytesBracketedByIndependentRecount) {
  // Independent cross-check of the blame matrix: for every egress-queueing
  // segment on a critical path, recount the foreign dequeue bytes at that
  // host by *time* window. Events strictly inside (begin, end) are in the
  // log window too (the log is appended in nondecreasing-time dispatch
  // order), so strict-interior <= reported <= closed-interval.
  fs::path dir = fs::path(testing::TempDir()) / "tls_report_recount";
  fs::remove_all(dir);
  exp::ExperimentConfig c = contended_scenario(core::PolicyKind::kFifo);
  fs::create_directories(dir);
  c.obs.trace_csv_path = (dir / "trace.csv").string();
  exp::run_experiment(c);
  std::vector<obs::TraceEvent> events;
  std::string error;
  ASSERT_TRUE(obs::oracle::read_trace_csv_file((dir / "trace.csv").string(),
                                               &events, nullptr, &error))
      << error;
  obs::RunReport report = obs::oracle::analyze(events);

  std::int64_t reported = 0;
  for (const obs::IterationReport& r : report.iterations) {
    for (const obs::BlameEntry& b : r.blame) {
      if (b.side == obs::BlameSide::kEgress) reported += b.bytes;
    }
  }
  ASSERT_GT(reported, 0) << "scenario no longer contends";

  std::int64_t interior = 0, closed = 0;
  for (const obs::IterationReport& r : report.iterations) {
    for (const obs::PathSegment& s : r.segments) {
      if (s.kind != obs::SegmentKind::kEgressQueue) continue;
      // Segments are clamped to the barrier window, but blame scans the
      // chunk's full enqueue..dequeue range; recover the true enqueue
      // instant from the dequeue event's queue-wait payload (field `a`).
      sim::Time begin = s.begin;
      for (const obs::TraceEvent& e : events) {
        if (e.kind == obs::EventKind::kChunkDequeue && e.host == s.host &&
            e.flow == s.flow && e.at == s.end) {
          begin = e.at - sim::Time{e.a};
          break;
        }
      }
      for (const obs::TraceEvent& e : events) {
        if (e.kind != obs::EventKind::kChunkDequeue) continue;
        if (e.host != s.host || e.flow == s.flow) continue;
        if (e.at > begin && e.at < s.end) interior += e.bytes;
        if (e.at >= begin && e.at <= s.end) closed += e.bytes;
      }
    }
  }
  EXPECT_LE(interior, reported);
  EXPECT_LE(reported, closed);
}

TEST(ReportConservation, IngressBlameBytesBracketedByIndependentRecount) {
  // Mirror of the egress bracket for the ingress side: for every fan-in
  // segment on a critical path, recount the foreign deliver bytes at the
  // receiving host by *time* window (true arrival recovered from the
  // deliver's residence payload). Strict-interior <= reported <= closed.
  fs::path dir = fs::path(testing::TempDir()) / "tls_report_irecount";
  fs::remove_all(dir);
  exp::ExperimentConfig c = contended_scenario(core::PolicyKind::kFifo);
  fs::create_directories(dir);
  c.obs.trace_csv_path = (dir / "trace.csv").string();
  exp::run_experiment(c);
  std::vector<obs::TraceEvent> events;
  std::string error;
  ASSERT_TRUE(obs::oracle::read_trace_csv_file((dir / "trace.csv").string(),
                                               &events, nullptr, &error))
      << error;
  obs::RunReport report = obs::oracle::analyze(events);

  std::int64_t reported = 0;
  for (const obs::IterationReport& r : report.iterations) {
    for (const obs::BlameEntry& b : r.blame) {
      if (b.side == obs::BlameSide::kIngress) reported += b.bytes;
    }
  }
  ASSERT_GT(reported, 0) << "scenario no longer contends at the ingress port";

  std::int64_t interior = 0, closed = 0;
  for (const obs::IterationReport& r : report.iterations) {
    for (const obs::PathSegment& s : r.segments) {
      if (s.kind != obs::SegmentKind::kFanIn) continue;
      // The fan-in segment ends at the critical chunk's deliver; its true
      // arrival is deliver minus residence (the deliver event's dur).
      sim::Time begin = s.begin;
      for (const obs::TraceEvent& e : events) {
        if (e.kind == obs::EventKind::kIngressDeliver && e.host == s.host &&
            e.flow == s.flow && e.at == s.end) {
          begin = e.at - e.dur;
          break;
        }
      }
      for (const obs::TraceEvent& e : events) {
        if (e.kind != obs::EventKind::kIngressDeliver) continue;
        if (e.host != s.host || e.flow == s.flow) continue;
        if (e.at > begin && e.at < s.end) interior += e.bytes;
        if (e.at >= begin && e.at <= s.end) closed += e.bytes;
      }
    }
  }
  EXPECT_LE(interior, reported);
  EXPECT_LE(reported, closed);
}

TEST(ReportBlame, SingleJobRunHasNoCrossJobBlame) {
  fs::path dir = fs::path(testing::TempDir()) / "tls_report_onejob";
  fs::remove_all(dir);
  exp::ExperimentConfig c = contended_scenario(core::PolicyKind::kFifo);
  c.workload.num_jobs = 1;
  c.placement = cluster::table1(1, 1);
  obs::RunReport report = run_and_analyze(c, dir);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].cross_job_blame_bytes, 0);
  for (const obs::IterationReport& r : report.iterations) {
    for (const obs::BlameEntry& b : r.blame) {
      EXPECT_EQ(b.culprit_job, r.job);
    }
  }
}

TEST(ReportDiff, TlsOneEliminatesPrioritizedJobsCrossJobBlame) {
  // The machine-checked headline: under FIFO the prioritized job queues
  // behind the other job's traffic; under TLs-One (job 0 in the green
  // band) that cross-job blame drops to exactly zero.
  fs::path fifo_dir = fs::path(testing::TempDir()) / "tls_report_diff_fifo";
  fs::path one_dir = fs::path(testing::TempDir()) / "tls_report_diff_one";
  fs::remove_all(fifo_dir);
  fs::remove_all(one_dir);
  obs::RunReport fifo =
      run_and_analyze(contended_scenario(core::PolicyKind::kFifo), fifo_dir);
  obs::RunReport one =
      run_and_analyze(contended_scenario(core::PolicyKind::kTlsOne), one_dir);

  ASSERT_EQ(fifo.jobs.size(), 2u);
  ASSERT_EQ(one.jobs.size(), 2u);
  EXPECT_GT(fifo.jobs[0].cross_job_blame_bytes, 0)
      << "FIFO baseline no longer contends; grow the scenario";
  EXPECT_EQ(one.jobs[0].cross_job_blame_bytes, 0)
      << "TLs-One failed to isolate the prioritized job";

  obs::DiffReport d = obs::diff_reports(fifo, one, "fifo", "tls-one");
  std::string text = obs::diff_text(d);
  EXPECT_NE(text.find("[queueing-behind-other-jobs eliminated]"),
            std::string::npos)
      << text;

  // The ingress side tells the complementary story: TLs-One schedules the
  // egress port only, so it reshuffles — not removes — fan-in contention.
  // Under FIFO the prioritized job absorbs cross-job deliver bytes at its
  // PS host; the deprioritized job sees none. Under TLs-One job 1's bursts
  // land behind job 0's, so job 1 *gains* ingress blame; the reverse diff
  // (tls-one -> fifo) then certifies that contention eliminated.
  EXPECT_GT(fifo.jobs[0].cross_job_ingress_blame_bytes, 0)
      << "FIFO baseline no longer contends at the ingress port";
  EXPECT_EQ(fifo.jobs[1].cross_job_ingress_blame_bytes, 0);
  EXPECT_GT(one.jobs[1].cross_job_ingress_blame_bytes, 0)
      << "TLs-One no longer displaces fan-in contention onto job 1";

  obs::DiffReport rev = obs::diff_reports(one, fifo, "tls-one", "fifo");
  std::string rev_text = obs::diff_text(rev);
  EXPECT_NE(rev_text.find("[fan-in contention eliminated]"), std::string::npos)
      << rev_text;
}

TEST(ReportDeterminism, RepeatedSeededRunsWriteIdenticalReports) {
  fs::path a = fs::path(testing::TempDir()) / "tls_report_det_a";
  fs::path b = fs::path(testing::TempDir()) / "tls_report_det_b";
  fs::remove_all(a);
  fs::remove_all(b);
  run_and_analyze(contended_scenario(core::PolicyKind::kTlsOne), a);
  run_and_analyze(contended_scenario(core::PolicyKind::kTlsOne), b);
  for (const char* file : {"report.txt", "report.csv", "report.json"}) {
    std::string first = read_file(a / file);
    ASSERT_FALSE(first.empty()) << file;
    EXPECT_EQ(first, read_file(b / file)) << file << " differs across runs";
  }
}

TEST(ReportDeterminism, SerialAndParallelRunSetsWriteIdenticalReports) {
  // The 3-policy comparison with report artifacts, executed with one
  // worker and with eight: per-run label-derived report files must be
  // byte-identical.
  fs::path serial_dir = fs::path(testing::TempDir()) / "tls_report_serial";
  fs::path parallel_dir = fs::path(testing::TempDir()) / "tls_report_par";
  fs::remove_all(serial_dir);
  fs::remove_all(parallel_dir);

  auto run_with = [&](const fs::path& dir, int jobs) {
    fs::create_directories(dir);
    exp::ExperimentConfig base = contended_scenario(core::PolicyKind::kFifo);
    base.obs.report_path = (dir / "report.txt").string();
    base.obs.report_json_path = (dir / "report.json").string();
    runtime::RunPlan plan = runtime::RunPlan::policy_comparison(base);
    runtime::RunOptions options;
    options.jobs = jobs;
    return runtime::run_plan(plan, options);
  };
  runtime::RunReport serial = run_with(serial_dir, 1);
  runtime::RunReport parallel = run_with(parallel_dir, 8);
  ASSERT_EQ(serial.labels, parallel.labels);

  for (const std::string& label : serial.labels) {
    for (const char* base : {"report.txt", "report.json"}) {
      std::string name =
          fs::path(obs::per_run_path(base, label)).filename().string();
      std::string first = read_file(serial_dir / name);
      ASSERT_FALSE(first.empty()) << name;
      EXPECT_EQ(first, read_file(parallel_dir / name))
          << name << " differs between jobs=1 and jobs=8";
    }
  }
}

TEST(ReportArtifacts, JsonIsWellFormedAndIntegerOnly) {
  fs::path dir = fs::path(testing::TempDir()) / "tls_report_json";
  fs::remove_all(dir);
  run_and_analyze(contended_scenario(core::PolicyKind::kFifo), dir);
  std::string json = read_file(dir / "report.json");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"schema\":\"tlsreport-v2\""), std::string::npos);
  // No string payload contains braces/brackets, so balance is structural.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.find('.'), std::string::npos) << "floats break determinism";
}

// ---------------------------------------------------------------------------
// tlsreport CLI, driven in-process (tools/tlsreport.cpp is a 2-line shim
// over run_report_cli).

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun report_cli(std::vector<std::string> args) {
  std::vector<const char*> argv;
  argv.push_back("tlsreport");
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out, err;
  int code = obs::run_report_cli(static_cast<int>(argv.size()), argv.data(),
                                 out, err);
  return {code, out.str(), err.str()};
}

/// Writes the contended scenario's trace CSV once per process. ctest runs
/// each test case in its own process, possibly in parallel, so the
/// directory is per process: no test rewrites a file another one reads.
const std::string& shared_trace_csv(core::PolicyKind policy,
                                    const char* name) {
  static std::map<std::string, std::string> cache;
  auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  fs::path dir = fs::path(testing::TempDir()) /
                 ("tls_report_cli-" + std::to_string(getpid())) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  exp::ExperimentConfig c = contended_scenario(policy);
  c.obs.trace_csv_path = (dir / (std::string(name) + ".csv")).string();
  exp::run_experiment(c);
  return cache.emplace(name, c.obs.trace_csv_path).first->second;
}

/// A per-process scratch directory holding a trace CSV with no events:
/// enough for every tlsreport mode to reach its output files.
fs::path empty_trace_dir() {
  fs::path dir = fs::path(testing::TempDir()) /
                 ("tls_report_cli_empty-" + std::to_string(getpid()));
  fs::create_directories(dir);
  std::ofstream(dir / "empty.csv", std::ios::binary)
      << obs::trace_csv(obs::Tracer{});
  return dir;
}

TEST(ReportCli, SingleTraceReportMatchesInProcessAnalysis) {
  const std::string& trace = shared_trace_csv(core::PolicyKind::kFifo, "fifo");
  fs::path dir = fs::path(testing::TempDir()) / "tls_report_cli_out";
  fs::create_directories(dir);
  std::string csv_path = (dir / "out.csv").string();
  std::string json_path = (dir / "out.json").string();
  CliRun r = report_cli({trace, "--csv", csv_path, "--json", json_path});
  ASSERT_EQ(r.code, 0) << r.err;

  obs::RunReport report = oracle_report(trace);
  EXPECT_EQ(r.out, obs::report_text(report));
  EXPECT_EQ(read_file(csv_path), obs::report_csv(report));
  EXPECT_EQ(read_file(json_path), obs::report_json(report));
}

TEST(ReportCli, DiffCertifiesElimination) {
  const std::string& fifo = shared_trace_csv(core::PolicyKind::kFifo, "fifo");
  const std::string& one =
      shared_trace_csv(core::PolicyKind::kTlsOne, "tls-one");
  CliRun r = report_cli({"--diff", fifo, one});
  ASSERT_EQ(r.code, 0) << r.err;
  // Labels derive from the file basenames.
  EXPECT_NE(r.out.find("A=fifo B=tls-one"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("[queueing-behind-other-jobs eliminated]"),
            std::string::npos)
      << r.out;
}

TEST(ReportCli, DiffBytesMatchOracleOnSharedTraces) {
  // Diff mode streams both traces through the engine; its text, CSV and
  // JSON must equal the renderers over two oracle reports. (The pair is
  // not trivial: DiffCertifiesElimination finds the certificate in it.)
  const std::string& fifo = shared_trace_csv(core::PolicyKind::kFifo, "fifo");
  const std::string& one =
      shared_trace_csv(core::PolicyKind::kTlsOne, "tls-one");
  fs::path dir = fs::path(testing::TempDir()) / "tls_report_cli_diff";
  fs::create_directories(dir);
  std::string csv_path = (dir / "diff.csv").string();
  std::string json_path = (dir / "diff.json").string();
  CliRun r =
      report_cli({"--diff", fifo, one, "--csv", csv_path, "--json", json_path});
  ASSERT_EQ(r.code, 0) << r.err;

  obs::DiffReport want = obs::diff_reports(oracle_report(fifo),
                                           oracle_report(one), "fifo",
                                           "tls-one");
  EXPECT_EQ(r.out, obs::diff_text(want));
  EXPECT_EQ(read_file(csv_path), obs::diff_csv(want));
  EXPECT_EQ(read_file(json_path), obs::diff_json(want));
}

TEST(ReportCli, QuietSuppressesText) {
  const std::string& trace = shared_trace_csv(core::PolicyKind::kFifo, "fifo");
  CliRun r = report_cli({trace, "--quiet"});
  EXPECT_EQ(r.code, 0);
  EXPECT_TRUE(r.out.empty());
}

TEST(ReportCli, HelpAndErrors) {
  EXPECT_EQ(report_cli({"--help"}).code, 0);
  EXPECT_NE(report_cli({"--help"}).out.find("usage: tlsreport"),
            std::string::npos);

  CliRun unknown = report_cli({"--frobnicate"});
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("unknown flag"), std::string::npos);

  CliRun missing = report_cli({"/nonexistent-dir-xyz/trace.csv"});
  EXPECT_EQ(missing.code, 2);
  EXPECT_NE(missing.err.find("/nonexistent-dir-xyz/trace.csv"),
            std::string::npos);

  CliRun wrong_count = report_cli({"--diff", "only-one.csv"});
  EXPECT_EQ(wrong_count.code, 2);
  EXPECT_NE(wrong_count.err.find("expected 2"), std::string::npos);

  CliRun no_value = report_cli({"a.csv", "--csv"});
  EXPECT_EQ(no_value.code, 2);
  EXPECT_NE(no_value.err.find("--csv needs a value"), std::string::npos);

  // The batch engine and its --stream switch are gone: every mode streams.
  CliRun stream = report_cli({"a.csv", "--stream"});
  EXPECT_EQ(stream.code, 2);
  EXPECT_NE(stream.err.find("unknown flag --stream"), std::string::npos);

  // --poll-ms feeds an int sleeper: values past INT_MAX (and past long)
  // are rejected, not wrapped. --max-polls bounds the loop were one to
  // slip through.
  fs::path dir = fs::path(testing::TempDir()) / "tls_report_cli_errors";
  fs::create_directories(dir);
  std::string html = (dir / "follow.html").string();
  for (const char* poll_ms : {"2147483648", "4294967297",
                              "99999999999999999999"}) {
    CliRun big = report_cli({"--follow", (dir / "t.csv").string(), "--html",
                             html, "--max-polls", "1", "--poll-ms", poll_ms});
    EXPECT_EQ(big.code, 2) << poll_ms;
    EXPECT_NE(big.err.find("bad value for --poll-ms"), std::string::npos)
        << big.err;
  }
}

TEST(ReportCli, FailedWriteExitsTwo) {
  // /dev/full opens fine and fails the write itself.
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string trace = (empty_trace_dir() / "empty.csv").string();
  for (const char* flag : {"--json", "--csv", "--html"}) {
    CliRun r = report_cli({trace, "--quiet", flag, "/dev/full"});
    EXPECT_EQ(r.code, 2) << flag;
    EXPECT_NE(r.err.find("tlsreport: write to '/dev/full' failed"),
              std::string::npos)
        << flag << ": " << r.err;
  }
}

TEST(ReportCli, RejectsFlagsItsModeDoesNotRead) {
  const fs::path dir = empty_trace_dir();
  const std::string trace = (dir / "empty.csv").string();
  const std::string html = (dir / "f.html").string();
  const std::string csv = (dir / "f.csv").string();
  // Each mode takes only the flags it reads, like a tlsim command.
  struct Row {
    std::vector<std::string> args;
    const char* flag;
  };
  const std::vector<Row> rows = {
      {{"--follow", trace, "--html", html, "--csv", csv, "--max-polls", "1"},
       "--csv"},
      {{trace, "--label-a", "A"}, "--label-a"},
      {{"--follow", trace, "--html", html, "--max-polls", "1", "--label-b",
        "B"},
       "--label-b"},
      {{trace, "--poll-ms", "5"}, "--poll-ms"},
      {{"--diff", trace, trace, "--max-polls", "1"}, "--max-polls"},
      {{trace, "--idle-polls", "1"}, "--idle-polls"},
  };
  for (const Row& row : rows) {
    CliRun r = report_cli(row.args);
    EXPECT_EQ(r.code, 2) << row.flag;
    EXPECT_NE(r.err.find(std::string("tlsreport: unknown flag ") + row.flag +
                         " (valid flags for tlsreport"),
              std::string::npos)
        << r.err;
    EXPECT_NE(r.err.find("usage: tlsreport"), std::string::npos) << row.flag;
  }
  EXPECT_FALSE(fs::exists(csv));
}

// Every value flag of tlsreport, given an empty, missing or malformed
// value in either spelling, exits 2 with the usage text before writing
// any output: an empty path or label is not read as "absent".
TEST(ReportCliMutation, EveryValueFlagRejectsMissingAndMalformedValues) {
  const std::string trace = (empty_trace_dir() / "empty.csv").string();
  const fs::path out = fs::path(testing::TempDir()) /
                       ("tls_report_cli_mutation-" + std::to_string(getpid()));
  fs::remove_all(out);
  fs::create_directories(out);
  const std::string html = (out / "o.html").string();
  const std::string json = (out / "o.json").string();
  // Each flag in a mode that reads it, with another output that a run
  // would write; --follow is bounded twice, so no single value unbounds it.
  const std::vector<std::string> one_html = {trace, "--quiet", "--html", html};
  const std::vector<std::string> one_json = {trace, "--quiet", "--json", json};
  const std::vector<std::string> diff = {"--diff", trace, trace, "--quiet",
                                         "--json", json};
  const std::vector<std::string> follow = {
      "--follow", trace, "--quiet", "--html", html, "--max-polls", "1",
      "--idle-polls", "1"};
  struct Flag {
    const char* name;
    const std::vector<std::string>& mode;
    bool number;
  };
  const Flag flags[] = {
      {"csv", one_html, false},     {"json", one_html, false},
      {"html", one_json, false},    {"label-a", diff, false},
      {"label-b", diff, false},     {"poll-ms", follow, true},
      {"max-polls", follow, true},  {"idle-polls", follow, true},
  };
  for (const Flag& f : flags) {
    const std::string flag = std::string("--") + f.name;
    std::vector<std::vector<std::string>> tries = {
        {flag, ""}, {flag + "="}, {flag}};
    if (f.number) {
      for (const char* v : {"-1", "1e3", "0x10", " 5", "2147483648"}) {
        tries.push_back({flag, v});
        tries.push_back({flag + "=" + v});
      }
    }
    for (const std::vector<std::string>& given : tries) {
      std::vector<std::string> args = f.mode;
      args.insert(args.end(), given.begin(), given.end());
      std::string shown =
          given[0] + (given.size() > 1 ? " '" + given[1] + "'" : "");
      CliRun r = report_cli(args);
      EXPECT_EQ(r.code, 2) << shown;
      EXPECT_TRUE(r.out.empty()) << shown;
      EXPECT_NE(r.err.find("usage: tlsreport"), std::string::npos) << shown;
      EXPECT_TRUE(fs::is_empty(out)) << shown;
      fs::remove_all(out);
      fs::create_directories(out);
    }
  }

  // The --k=v spelling reads as --k v, as it does for tlsim.
  const std::string& fifo = shared_trace_csv(core::PolicyKind::kFifo, "fifo");
  const std::string spaced = (out / "spaced.json").string();
  const std::string joined = (out / "joined.json").string();
  ASSERT_EQ(report_cli({fifo, "--quiet", "--json", spaced}).code, 0);
  CliRun r = report_cli({fifo, "--quiet", "--json=" + joined});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(read_file(joined), read_file(spaced));
  r = report_cli({"--follow", fifo, "--quiet", "--html", html,
                  "--poll-ms=10", "--max-polls", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
}

}  // namespace
}  // namespace tls
