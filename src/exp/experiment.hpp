// End-to-end experiment runner: cluster + fabric + tc + TensorLights +
// workload in one call, returning everything the paper's figures report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/placement.hpp"
#include "metrics/stats.hpp"
#include "net/fabric.hpp"
#include "obs/trace.hpp"
#include "tensorlights/coordinator.hpp"
#include "tensorlights/policy.hpp"
#include "workload/background.hpp"
#include "workload/gridsearch.hpp"

namespace tls::exp {

/// Observability artifact selection for one experiment. All paths empty
/// (the default) means no Tracer is attached and the simulation pays only
/// a null-pointer check per emission site. Artifacts never influence the
/// ExperimentResult.
struct ObsOptions {
  /// Chrome trace-event JSON output (Perfetto/chrome://tracing).
  std::string trace_path;
  /// Compact CSV rendering of the same events, written row by row while
  /// the run simulates.
  std::string trace_csv_path;
  /// Category bitmask for the event log (obs::parse_categories).
  std::uint32_t trace_categories = obs::kAllCats;
  /// Tidy long-format metrics timeseries CSV.
  std::string metrics_path;
  /// Straggler-attribution report (obs::analysis) in its three renderings.
  /// Requesting any of them forces the kAnalysisCats categories into the
  /// tracer mask, so the report never silently degrades because of a
  /// narrow --trace-filter.
  std::string report_path;       ///< human-readable text
  std::string report_csv_path;   ///< tidy long CSV
  std::string report_json_path;  ///< tlsreport-v2 JSON
  std::string report_html_path;  ///< self-contained HTML dashboard
  /// Period of the queue-depth / iteration-lag gauge sampler.
  sim::Time sample_period = 100 * sim::kMillisecond;
  /// Cap on accepted trace events (0 = unlimited); the rest count as
  /// dropped in every artifact's capture health. Only the trace_path
  /// export holds events in memory, so that log is all the cap bounds.
  std::size_t max_events = 0;
  /// Capture-sampling spec, a comma list of cat=N keep-1-in-N rates (see
  /// obs::parse_sampling, e.g. "qdisc=16,htb=8"). Critical-chain
  /// categories are clamped to 1 so attribution stays exact.
  std::string trace_sample;

  bool report_any() const {
    return !report_path.empty() || !report_csv_path.empty() ||
           !report_json_path.empty() || !report_html_path.empty();
  }
  bool any() const {
    return !trace_path.empty() || !trace_csv_path.empty() ||
           !metrics_path.empty() || report_any();
  }
};

struct ExperimentConfig {
  /// Cluster geometry (fabric.num_hosts is overridden by num_hosts).
  int num_hosts = 21;
  net::FabricConfig fabric{};
  int cores_per_host = 12;

  workload::GridSearchConfig workload{};

  /// Optional Poisson cross-traffic running for the whole experiment.
  bool background = false;
  workload::BackgroundTrafficConfig background_config{};

  /// Optional centralized transmission coordination (Future Work #2),
  /// usually combined with controller.policy = kFifo to isolate it.
  bool coordinated_transport = false;
  core::CoordinatorConfig coordinator_config{};

  /// PS placement; defaults to Table I #1 (all PSes on one host).
  cluster::PsPlacement placement = cluster::table1(1, 21);

  core::ControllerConfig controller{};  // policy defaults to TLs-One

  sim::Time stagger = 100 * sim::kMillisecond;
  std::uint64_t seed = 1;

  /// ifstat-analog sampling period.
  sim::Time nic_sample_period = 1 * sim::kSecond;

  /// The utilization "active window" spans these fractions of the span
  /// from the last job launch to the earliest job completion — the steady
  /// state when every job is running (paper: seconds 100-1250).
  double active_window_begin_frac = 0.15;
  double active_window_end_frac = 0.85;

  /// Hard simulated-time cap (guards against configuration mistakes).
  sim::Time time_limit = 48L * 3600 * sim::kSecond;

  /// Trace/metrics artifacts (inert by default).
  ObsOptions obs{};
};

struct JobResult {
  std::int32_t job_id = 0;
  double jct_s = 0;
  std::int64_t iterations = 0;
  bool finished = false;
  /// Per-barrier mean and variance of worker waits (Figures 3 and 6).
  std::vector<double> barrier_mean_waits_s;
  std::vector<double> barrier_variances_s2;
};

struct ExperimentResult {
  std::string policy_name;
  std::vector<JobResult> jobs;
  double avg_jct_s = 0;
  double min_jct_s = 0;
  double max_jct_s = 0;

  /// Pooled over all jobs' barriers.
  metrics::Summary barrier_mean_summary;
  metrics::Summary barrier_variance_summary;

  /// Average utilization over the active window, by host role. "PS hosts"
  /// run at least one PS; "worker hosts" run none.
  double cpu_util_ps_hosts = 0;
  double cpu_util_worker_hosts = 0;
  double nic_in_util = 0;   // averaged over all hosts
  double nic_out_util = 0;

  sim::Time active_window_begin{};
  sim::Time active_window_end{};

  /// Count of tc commands successfully applied (0 under FIFO).
  std::uint64_t tc_commands = 0;
  /// TLs-RR rotations performed.
  std::uint64_t rotations = 0;

  std::uint64_t sim_events = 0;
  double sim_horizon_s = 0;
  bool all_finished = false;

  /// Background cross-traffic outcome (zeros when disabled).
  std::uint64_t background_flows = 0;
  double background_mean_fct_s = 0;

  /// Coordinated-transport outcome (zeros when disabled).
  std::uint64_t coordinator_grants = 0;
  double coordinator_wait_s = 0;
};

/// Runs one experiment to completion or to exactly config.time_limit.
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Per-job normalized JCT: jct(policy) / jct(baseline), matched by job id
/// (Figure 5's normalization). Jobs missing from either side are skipped.
std::vector<double> normalized_jcts(const ExperimentResult& policy,
                                    const ExperimentResult& baseline);

/// Mean of normalized_jcts (bar heights in Figure 5).
double avg_normalized_jct(const ExperimentResult& policy,
                          const ExperimentResult& baseline);

/// Convenience: a copy of `base` with the given policy installed.
ExperimentConfig with_policy(ExperimentConfig base, core::PolicyKind policy);

// Replicated and comparative runs are runtime::RunPlan::replicated and
// ::policy_comparison (runtime/runner.hpp): they fan out across
// tls::runtime threads, and exp must stay below runtime in the
// include-layer DAG.

/// Summary of avg-JCT across replicated runs (mean/stddev/min/max).
metrics::Summary jct_across(const std::vector<ExperimentResult>& runs);

/// Summary of per-run avg-normalized-JCT for matched (same-seed) policy
/// and baseline replicas. Requires equal sizes.
metrics::Summary normalized_across(const std::vector<ExperimentResult>& policy,
                                   const std::vector<ExperimentResult>& baseline);

}  // namespace tls::exp
