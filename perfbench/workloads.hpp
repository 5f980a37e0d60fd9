// perfbench workloads: seeded inputs, the timed pass through the product's
// own entry points, and the output checks every pass must pass.
//
// A timed pass calls exp::run_experiment, scenario::run_scenario and
// obs::run_report_cli exactly as tlsim / tlsreport do, on one thread and
// with no result cache, so a later change to those entry points is what
// the benchmark measures.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "scenario/engine.hpp"
#include "scenario/trace.hpp"

namespace perfbench {

enum class Workload { kPaperFifo, kPaperReport, kScenarioChurn };

/// "paper_fifo" | "paper_report" | "scenario_churn".
bool parse_workload(const std::string& name, Workload* out);
const char* to_string(Workload workload);

/// kPaper is what the benchmark runs; kTiny shrinks every geometry so the
/// smoke tests finish in about a second.
enum class Scale { kPaper, kTiny };

/// Removes TLS_CACHE_DIR, TLS_JOBS and every TLS_BENCH_* variable from the
/// process environment, so no stray setting turns a pass into a cache hit
/// or changes its thread count.
void scrub_environment();

/// Parses `--key value` pairs and the bare `--setup-only`, `--sparse-probe`
/// and `--reference`; returns false on a stray token.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  Scale scale = Scale::kPaper;
  double seconds = 10;
  std::string spans_path;
  /// Stop after set-up: extra set-up samples for the setup_s median.
  bool setup_only = false;
  /// scenario_churn only: run the sparse memory probe instead of a pass
  /// (see sparse_scenario_config).
  bool sparse_probe = false;
  /// Run the host-speed reference (reference.hpp) instead of a pass.
  bool reference = false;
};
bool parse_args(int argc, char** argv, Args* out, std::string* error);

/// A file the pass writes and reads back, backed by an anonymous memory
/// file (memfd) so trace writeback never touches a disk. Throws when the
/// memory file or its /proc/self/fd path cannot be opened: a pass is never
/// measured against a disk file.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name);
  ~ScratchFile();
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  const std::string& path() const { return path_; }
  /// Whole current content.
  std::string read() const;
  std::uint64_t size() const;

 private:
  int fd_ = -1;
  std::string path_;
};

/// The four in-memory files a paper_report pass writes: the in-process
/// report (text, JSON), the trace CSV, and the offline report's JSON.
struct ReportFiles {
  ReportFiles();
  ScratchFile report_text;
  ScratchFile report_json;
  ScratchFile trace_csv;
  ScratchFile offline_json;
};

/// Everything a pass consumes, generated from the seed during set-up.
struct Inputs {
  Workload workload = Workload::kPaperFifo;
  Scale scale = Scale::kPaper;
  std::uint64_t seed = 1;
  /// Iterations every paper job runs (paper workloads).
  std::int64_t iterations = 0;
  tls::exp::ExperimentConfig experiment;
  /// Scenario config with `replay` already holding the generated trace.
  tls::scenario::Config scenario;
  /// The scenario is the sparse memory probe, not a churn pass.
  bool sparse_probe = false;
  std::unique_ptr<ReportFiles> files;  ///< paper_report only
};

/// `sparse_probe` is valid with kScenarioChurn only.
Inputs make_inputs(Workload workload, std::uint64_t seed, Scale scale,
                   bool sparse_probe = false);

/// The scenario's trace generator settings (trace seed = workload seed).
tls::scenario::Config scenario_config(std::uint64_t seed, Scale scale);

/// The sparse memory probe: bench_scenario's long policy-comparison sizing
/// (12 hosts, PS-agnostic scheduler, 2.5 Gb/s links, a 120-job Poisson
/// trace at a 36 s mean gap, 4-8 workers, batch 1, 10% of jobs evicted
/// 30-120 s after admission) under TLs-RR. Lulls between its jobs are
/// where the scenario path's memory peaks; the dense churn never lulls.
tls::scenario::Config sparse_scenario_config(std::uint64_t seed, Scale scale);

/// The paper testbed (21 hosts, 21 ResNet-32 jobs x 20 workers, batch 4,
/// Table I placement #1) under `policy`, or its tiny stand-in.
tls::exp::ExperimentConfig paper_config(tls::core::PolicyKind policy,
                                        std::int64_t iterations,
                                        std::uint64_t seed, Scale scale);

/// One parameter record per run, in the BenchmarkParams style: every knob
/// that decides what a pass simulates.
struct BenchmarkParams {
  std::string workload;
  std::uint64_t seed = 0;
  std::string scale;
  int hosts = 0;
  /// Paper workloads: concurrent jobs; scenario: trace length.
  int jobs = 0;
  std::string workers_per_job;
  std::string iterations;
  std::string placement;
  std::string policy;
  std::string data_plane;
  std::string admission;
  std::string arrivals;
  std::string eviction;
  std::string obs;

  std::string json() const;
};
BenchmarkParams params_of(const Inputs& inputs);

/// What a timed pass produced, before checking.
struct PassOutput {
  tls::exp::ExperimentResult experiment;
  tls::scenario::Result scenario;
  /// paper_report: offline tlsreport's exit code and text report.
  int report_cli_rc = 0;
  std::string offline_text;
  std::string report_cli_err;
};

/// Runs one timed pass through the product entry points.
PassOutput run_pass(const Inputs& inputs);

/// Simulated job-iterations the pass completed.
std::int64_t job_iterations(const Inputs& inputs, const PassOutput& out);

/// Output check; returns an empty string when the pass is correct,
/// otherwise what failed.
std::string check_pass(const Inputs& inputs, const PassOutput& out);

/// Digest of every simulated statistic (per-job JCT, barrier means and
/// variances, sim_events, tc commands, ...): a speed-only change must
/// leave it identical. `summary` gets a short readable form.
std::string digest(const Inputs& inputs, const PassOutput& out,
                   std::string* summary);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// JSON string literal for `s`.
std::string json_quote(const std::string& s);

/// printf into a std::string (messages and canonical digest text; at most
/// 511 characters).
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
