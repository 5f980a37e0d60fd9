// End-to-end observability tests: the golden-file traces (Chrome JSON and
// streamed CSV) for a small 2-host/2-job scenario, the byte-identity
// contract — repeated seeded runs and serial-vs-parallel RunSets must write
// identical artifact files — and that a failed run leaves no partial files.
//
// Regenerate the golden after an intentional format or scenario change:
//   TLS_REGOLDEN=1 ./test_obs --gtest_filter='ObsGolden.*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "exp/experiment.hpp"
#include "obs/trace.hpp"
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

/// Tiny but complete scenario: 2 hosts, 2 jobs sharing one PS host and one
/// worker host, a toy model small enough that the whole trace stays
/// reviewable, TLs-RR so rotation/band-assign events appear.
exp::ExperimentConfig small_scenario() {
  exp::ExperimentConfig c;
  c.num_hosts = 2;
  c.cores_per_host = 4;
  c.workload.num_jobs = 2;
  c.workload.workers_per_job = 1;
  c.workload.local_batch_size = 1;
  c.workload.step_overhead = tls::sim::Time{0};
  c.workload.global_step_target = 2;  // two sync iterations per job
  c.workload.model = dl::ModelSpec{"toy", 64'000, 5.0};
  c.placement = cluster::table1(1, 2);
  c.controller.policy = core::PolicyKind::kTlsRR;
  c.controller.rotation_interval = 50 * sim::kMillisecond;
  c.stagger = 10 * sim::kMillisecond;
  c.seed = 7;
  c.obs.sample_period = 20 * sim::kMillisecond;
  return c;
}

/// Attaches all three artifact paths under `dir`.
exp::ExperimentConfig with_artifacts(exp::ExperimentConfig c,
                                     const fs::path& dir) {
  fs::create_directories(dir);
  c.obs.trace_path = (dir / "trace.json").string();
  c.obs.trace_csv_path = (dir / "trace.csv").string();
  c.obs.metrics_path = (dir / "metrics.csv").string();
  return c;
}

/// Compares `got` with tests/obs/golden/<name>, or rewrites the golden
/// (and skips) under TLS_REGOLDEN.
void expect_golden(const std::string& got, const char* name,
                   const char* drift) {
  fs::path golden = fs::path(TLS_OBS_GOLDEN_DIR) / name;
  if (std::getenv("TLS_REGOLDEN") != nullptr) {
    fs::create_directories(golden.parent_path());
    std::ofstream out(golden, std::ios::binary);
    out << got;
    GTEST_SKIP() << "regenerated " << golden;
  }
  std::string want = read_file(golden);
  ASSERT_FALSE(want.empty())
      << "missing golden " << golden << " — regenerate with TLS_REGOLDEN=1";
  EXPECT_EQ(got, want) << drift
                       << "; if intentional, regenerate the golden with "
                          "TLS_REGOLDEN=1";
}

TEST(ObsGolden, TwoHostTwoJobTraceMatchesGolden) {
  fs::path dir = fs::path(testing::TempDir()) / "tls_obs_golden_run";
  fs::remove_all(dir);
  exp::ExperimentConfig c = with_artifacts(small_scenario(), dir);
  exp::ExperimentResult result = exp::run_experiment(c);
  ASSERT_TRUE(result.all_finished);
  std::string got = read_file(dir / "trace.json");
  ASSERT_FALSE(got.empty());
  expect_golden(got, "trace_2h2j.json", "trace format or scenario drifted");
}

TEST(ObsGolden, TwoHostTwoJobCsvMatchesGolden) {
  // Only the trace CSV requested: the tracer keeps no log and the file
  // streams from its sink while the run simulates. The golden was
  // rendered from a fully stored log.
  fs::path dir = fs::path(testing::TempDir()) / "tls_obs_golden_csv";
  fs::remove_all(dir);
  fs::create_directories(dir);
  exp::ExperimentConfig c = small_scenario();
  c.obs.trace_csv_path = (dir / "trace.csv").string();
  ASSERT_TRUE(exp::run_experiment(c).all_finished);
  std::string got = read_file(dir / "trace.csv");
  ASSERT_FALSE(got.empty());
  expect_golden(got, "trace_2h2j.csv", "trace CSV format or scenario drifted");
}

/// Fig. 2-shaped FIFO scenario, shrunk: multiple jobs contending through
/// the default pfifo qdisc (the kFifo policy installs nothing), so the
/// trace exercises the exact hot path the simulator core optimizes —
/// FIFO chunk interleaving at a shared egress NIC. Byte-equality with the
/// golden certifies that the event queue replays the identical (time,
/// seq) event order, whatever structure holds the pending set.
exp::ExperimentConfig fig2_small_scenario() {
  exp::ExperimentConfig c;
  c.num_hosts = 5;
  c.cores_per_host = 4;
  c.workload.num_jobs = 4;
  c.workload.workers_per_job = 3;
  c.workload.local_batch_size = 1;
  c.workload.step_overhead = tls::sim::Time{0};
  c.workload.global_step_target = 8;  // two sync iterations per job
  c.workload.model = dl::ModelSpec{"toy", 64'000, 5.0};
  c.placement = cluster::table1(1, 4);
  c.controller.policy = core::PolicyKind::kFifo;
  c.stagger = 5 * sim::kMillisecond;
  c.seed = 11;
  c.obs.sample_period = 20 * sim::kMillisecond;
  return c;
}

TEST(ObsGolden, Fig2SmallFifoTraceMatchesGolden) {
  fs::path dir = fs::path(testing::TempDir()) / "tls_obs_golden_fig2s";
  fs::remove_all(dir);
  exp::ExperimentConfig c = with_artifacts(fig2_small_scenario(), dir);
  exp::ExperimentResult result = exp::run_experiment(c);
  ASSERT_TRUE(result.all_finished);
  std::string got = read_file(dir / "trace.json");
  ASSERT_FALSE(got.empty());
  expect_golden(got, "trace_fig2_small.json",
                "event order or trace format drifted from the binary-heap "
                "build");
}

TEST(ObsGolden, TraceLooksLikeWellFormedChromeJson) {
  fs::path dir = fs::path(testing::TempDir()) / "tls_obs_wellformed";
  fs::remove_all(dir);
  exp::ExperimentConfig c = with_artifacts(small_scenario(), dir);
  exp::run_experiment(c);
  std::string json = read_file(dir / "trace.json");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // No string payload contains braces, so brace balance is a faithful
  // structural check here (the CI smoke test runs a real JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // The scenario exercises every layer: NIC chunks, qdisc service,
  // controller assignment, barriers, and periodic gauges.
  for (const char* name :
       {"chunk_enqueue", "chunk_dequeue", "band_assign", "barrier_release",
        "gauge_sample"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

TEST(ObsDeterminism, RepeatedSeededRunsWriteIdenticalArtifacts) {
  fs::path a = fs::path(testing::TempDir()) / "tls_obs_det_a";
  fs::path b = fs::path(testing::TempDir()) / "tls_obs_det_b";
  fs::remove_all(a);
  fs::remove_all(b);
  exp::run_experiment(with_artifacts(small_scenario(), a));
  exp::run_experiment(with_artifacts(small_scenario(), b));
  for (const char* file : {"trace.json", "trace.csv", "metrics.csv"}) {
    std::string first = read_file(a / file);
    ASSERT_FALSE(first.empty()) << file;
    EXPECT_EQ(first, read_file(b / file)) << file << " differs across runs";
  }
}

TEST(ObsDeterminism, SerialAndParallelRunSetsWriteIdenticalArtifacts) {
  // The same 3-policy comparison executed with one worker and with eight
  // must produce byte-identical per-run artifact files: each simulation is
  // single-threaded and owns its label-derived paths.
  fs::path serial_dir = fs::path(testing::TempDir()) / "tls_obs_serial";
  fs::path parallel_dir = fs::path(testing::TempDir()) / "tls_obs_parallel";
  fs::remove_all(serial_dir);
  fs::remove_all(parallel_dir);

  auto run_with = [&](const fs::path& dir, int jobs) {
    runtime::RunPlan plan = runtime::RunPlan::policy_comparison(
        with_artifacts(small_scenario(), dir));
    runtime::RunOptions options;
    options.jobs = jobs;
    return runtime::run_plan(plan, options);
  };
  runtime::RunReport serial = run_with(serial_dir, 1);
  runtime::RunReport parallel = run_with(parallel_dir, 8);
  ASSERT_EQ(serial.labels, parallel.labels);

  for (const std::string& label : serial.labels) {
    for (const char* base : {"trace.json", "trace.csv", "metrics.csv"}) {
      std::string name =
          fs::path(obs::per_run_path(base, label)).filename().string();
      std::string first = read_file(serial_dir / name);
      ASSERT_FALSE(first.empty()) << name;
      EXPECT_EQ(first, read_file(parallel_dir / name))
          << name << " differs between jobs=1 and jobs=8";
    }
  }
}

TEST(ObsDeterminism, ArtifactsDoNotPerturbResults) {
  // A traced run must report exactly the metrics an untraced run does —
  // observability reads simulation state, never steers it. sim_events may
  // differ (the gauge sampler adds timer events), so compare exports.
  exp::ExperimentConfig plain = small_scenario();
  fs::path dir = fs::path(testing::TempDir()) / "tls_obs_perturb";
  fs::remove_all(dir);
  exp::ExperimentConfig traced = with_artifacts(plain, dir);
  exp::ExperimentResult a = exp::run_experiment(plain);
  exp::ExperimentResult b = exp::run_experiment(traced);
  EXPECT_EQ(a.avg_jct_s, b.avg_jct_s);
  EXPECT_EQ(a.rotations, b.rotations);
  EXPECT_EQ(a.tc_commands, b.tc_commands);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].jct_s, b.jobs[i].jct_s) << "job " << i;
    EXPECT_EQ(a.jobs[i].iterations, b.jobs[i].iterations) << "job " << i;
  }
}

TEST(ObsArtifacts, RunThatThrowsLeavesNoPartialFiles) {
  // The trace CSV opens before the simulation; a run rejected after that
  // (assign_tasks refuses as many workers per job as hosts) removes it.
  fs::path dir = fs::path(testing::TempDir()) / "tls_obs_throw";
  fs::remove_all(dir);
  fs::create_directories(dir);
  exp::ExperimentConfig c = small_scenario();
  c.workload.workers_per_job = c.num_hosts;
  c.obs.trace_csv_path = (dir / "trace.csv").string();
  c.obs.report_path = (dir / "report.txt").string();
  EXPECT_THROW(exp::run_experiment(c), std::invalid_argument);
  EXPECT_FALSE(fs::exists(dir / "trace.csv"));
  EXPECT_FALSE(fs::exists(dir / "report.txt"));
}

TEST(ObsArtifacts, UnopenableTraceCsvFailsBeforeTheRunIsWired) {
  fs::path missing = fs::path(testing::TempDir()) / "tls_obs_missing_dir";
  fs::remove_all(missing);
  exp::ExperimentConfig c = small_scenario();
  c.obs.trace_csv_path = (missing / "trace.csv").string();
  const std::string want = "trace CSV export failed: cannot open '" +
                           c.obs.trace_csv_path + "' for writing";
  auto message = [](const exp::ExperimentConfig& config) -> std::string {
    try {
      exp::run_experiment(config);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no std::runtime_error";
  };
  EXPECT_EQ(message(c), want);
  // The file opens with the tracer, before any component: even a config
  // assign_tasks would reject fails on the path first.
  c.workload.workers_per_job = c.num_hosts;
  EXPECT_EQ(message(c), want);
  EXPECT_FALSE(fs::exists(missing));
}

}  // namespace
}  // namespace tls
