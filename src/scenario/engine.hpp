// The dynamic-cluster scenario engine.
//
// run_scenario drives one long-horizon simulation in which jobs arrive,
// train, and depart (or are evicted) according to a Trace, while the
// online scheduler places them, the admission policy arbitrates tc's
// finite band budget, and the TensorLights controller (re)assigns bands
// as the cluster churns. This is the regime the paper's static testbed
// never reaches: band exhaustion past max_bands colocated PSes, rotation
// thrash under churn, and queueing delay as a first-class metric.
//
// Determinism: the trace is a pure function of TraceConfig::seed, the
// simulation of Config::seed, and every aggregate is accumulated in trace
// order — so a scenario's exported bytes are identical across repeated
// runs and across any host thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/scheduler.hpp"
#include "metrics/stats.hpp"
#include "net/fabric.hpp"
#include "scenario/trace.hpp"
#include "tensorlights/policy.hpp"

namespace tls::scenario {

struct Config {
  int num_hosts = 12;
  int cores_per_host = 6;
  /// num_hosts is overwritten from the field above at run time.
  net::FabricConfig fabric;
  core::ControllerConfig controller;
  cluster::SchedulerPolicy scheduler = cluster::SchedulerPolicy::kPsAware;
  cluster::AdmissionPolicy admission = cluster::AdmissionPolicy::kShareBand;
  /// PS jobs per host before the admission policy kicks in. -1 (default)
  /// follows controller.max_bands — one job per distinct tc band — and 0
  /// disables the limit entirely.
  int ps_band_limit = -1;
  /// Workload: replay wins when it has jobs, otherwise `trace` is
  /// generated from its own seed.
  TraceConfig trace;
  Trace replay;
  /// Simulator seed (compute noise, TCP weight noise). Deliberately
  /// decoupled from trace.seed so policy comparisons share the workload.
  std::uint64_t seed = 1;
  /// Hard stop; jobs still running or queued then count as unfinished.
  sim::Time time_limit = 4 * 3600 * sim::kSecond;
  /// Period of the occupancy gauges (active jobs, per-host PS/band
  /// counts) in the obs registry; <= 0 disables sampling.
  sim::Time sample_period = 10 * sim::kSecond;
  /// Metrics timeseries CSV destination; empty = no file written.
  std::string metrics_path;
};

enum class JobStatus { kCompleted, kEvicted, kRejected, kUnfinished };

const char* to_string(JobStatus status);

/// Per-job account of what the scenario did with one trace entry.
struct JobOutcome {
  std::int32_t job_id = -1;
  std::string model;
  int num_workers = 0;
  std::int64_t iterations_target = 0;
  std::int64_t iterations_done = 0;
  double arrival_s = 0;
  double admit_s = -1;   ///< -1 = never admitted
  double finish_s = -1;  ///< -1 = still running at the horizon
  /// Arrival-to-admission delay (0 when placed on arrival).
  double queue_wait_s = 0;
  /// Admission-to-completion time; filled for completed and evicted jobs.
  double jct_s = -1;
  /// tc band the job landed in at admission (-1 under FIFO).
  int band_at_admit = -1;
  JobStatus status = JobStatus::kUnfinished;
};

struct Result {
  std::string policy_name;
  std::string admission_name;
  std::uint64_t seed = 0;
  std::uint64_t trace_seed = 0;
  int num_hosts = 0;
  std::vector<JobOutcome> jobs;  // trace order
  std::size_t completed = 0;
  std::size_t evicted = 0;
  std::size_t rejected = 0;
  std::size_t unfinished = 0;
  metrics::Summary jct;         ///< completed jobs only
  metrics::Summary queue_wait;  ///< admitted jobs
  int peak_active_jobs = 0;
  int peak_ps_colocation = 0;
  /// Mean per-host CPU utilization over [0, horizon].
  double cluster_cpu_util = 0;
  std::uint64_t rotations = 0;
  std::uint64_t tc_commands = 0;
  std::uint64_t sim_events = 0;
  double horizon_s = 0;
  /// False when the time limit cut the trace short.
  bool trace_drained = true;
};

/// Runs one scenario to completion (or the time limit). Throws
/// std::invalid_argument on inconsistent configuration (unknown model
/// names, num_hosts < 2, ...).
Result run_scenario(const Config& config);

}  // namespace tls::scenario
