// tls::scenario — trace-driven dynamic-cluster workloads.
//
// A Trace is a deterministic timeline of job arrivals: when each job
// shows up, what model it trains, how many workers it wants, and (for a
// churn fraction) when it is forcibly evicted. Traces are either
// generated from a seeded TraceConfig — Poisson or bounded-Pareto
// interarrival, heterogeneous model/worker/iteration draws, all through
// sim::Rng so the same seed yields the same workload byte-for-byte — or
// replayed from a CSV produced by trace_csv (or written by hand).
//
// Generation is decoupled from the simulator's seed on purpose: a policy
// comparison runs the *identical* workload under FIFO / TLs-One / TLs-RR
// while each run's compute-noise streams stay independent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/time.hpp"

namespace tls::scenario {

/// Interarrival-time distribution of the generated trace.
enum class ArrivalProcess {
  /// Memoryless arrivals: exponential interarrival with the configured
  /// mean — the classic cluster-trace baseline.
  kPoisson,
  /// Heavy-tailed arrivals: bounded Pareto interarrival (shape alpha on
  /// [min, max]), producing the bursts-then-lulls pattern real cluster
  /// traces exhibit. Bursts are what exhaust tc's band budget.
  kParetoBounded,
};

const char* to_string(ArrivalProcess process);

/// One job of the timeline.
struct TraceJob {
  std::int32_t job_id = 0;
  /// Absolute arrival time (nondecreasing across the trace).
  sim::Time arrival{};
  /// Forced departure this long after admission; <= 0 = run to
  /// completion. Models preemption / user cancellation churn.
  sim::Time lifetime{};
  /// dl::zoo model name (validated at engine time).
  std::string model = "resnet32_cifar10";
  int num_workers = 2;
  int local_batch_size = 4;
  /// Synchronous iterations to run (global_step_target = iterations *
  /// num_workers).
  std::int64_t iterations = 40;
};

struct Trace {
  std::vector<TraceJob> jobs;  // sorted by (arrival, job_id)
};

/// Knobs of the trace generator. Every distribution is sampled from
/// sim::Rng streams forked off `seed`, so a config maps to exactly one
/// trace.
struct TraceConfig {
  int num_jobs = 100;
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Mean interarrival for kPoisson.
  double mean_interarrival_s = 30.0;
  /// Bounded-Pareto interarrival parameters for kParetoBounded.
  double pareto_alpha = 1.5;
  double pareto_min_s = 2.0;
  double pareto_max_s = 600.0;
  /// Model mix, drawn uniformly; every name must exist in dl::zoo.
  std::vector<std::string> models = {"resnet32_cifar10"};
  /// Worker count drawn uniformly in [min_workers, max_workers].
  int min_workers = 2;
  int max_workers = 8;
  /// Iteration target drawn uniformly in [min_iterations, max_iterations].
  std::int64_t min_iterations = 20;
  std::int64_t max_iterations = 80;
  int local_batch_size = 4;
  /// Fraction of jobs evicted mid-flight; their lifetime is drawn
  /// uniformly in [evict_min_s, evict_max_s].
  double evict_fraction = 0.0;
  double evict_min_s = 30.0;
  double evict_max_s = 300.0;
  std::uint64_t seed = 1;
};

/// Deterministically generates a trace from the config. Throws
/// std::invalid_argument on out-of-range knobs or unknown model names.
Trace generate_trace(const TraceConfig& config);

/// One bounded-Pareto draw (shape `alpha` on [lo, hi]) from `u` in
/// [0, 1). Exposed for unit testing the inverse CDF.
double bounded_pareto(double u, double alpha, double lo, double hi);

/// CSV round-trip: header `job_id,arrival_s,lifetime_s,model,workers,
/// batch,iterations`, times printed at nanosecond precision so
/// parse(trace_csv(t)) == t exactly.
std::string trace_csv(const Trace& trace);

/// Parses a trace CSV. Returns false with a line-numbered message on
/// malformed input or on a value outside the bounds tlsim scenario puts
/// on a generated trace: job_id in [0, 2^31 - 1], arrival_s finite in
/// [0, 1e9], |lifetime_s| <= 1e9, workers in [1, 4095], batch in
/// [1, 65536] and iterations in [1, 10^6]. Jobs are sorted by
/// (arrival, job_id); duplicate job ids are rejected, and so is a trace
/// with no jobs ("trace has no jobs").
bool parse_trace_csv(const std::string& text, Trace* out, std::string* error);

/// Parses a comma-separated model mix for configuration surfaces; the
/// special name "mix" expands to the whole dl::zoo. Returns false with a
/// message listing the valid names when one is unknown or the list is
/// empty.
bool parse_model_mix(const std::string& text, std::vector<std::string>* out,
                     std::string* error);

}  // namespace tls::scenario
