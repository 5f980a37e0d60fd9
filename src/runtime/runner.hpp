// tls::runtime — parallel experiment execution engine.
//
// A Plan is an ordered list of labelled, fully independent configurations:
// static batches (exp::ExperimentConfig: seed replicas, placement sweeps,
// policy comparisons, batch sweeps) or churn scenarios (scenario::Config).
// run_plan fans the plan's entries across worker threads that claim run
// indices one at a time, and returns results **keyed by run index, never
// by completion order**, so the output of a parallel run is byte-identical
// to a serial one — the repo-wide determinism contract survives
// parallelism untouched (witnessed by tests/runtime/runner_test.cpp and
// tests/runtime/scenario_runner_test.cpp).
#pragma once

#include <concepts>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "scenario/engine.hpp"

namespace tls::runtime {

template <typename Config>
struct Plan {
  struct Entry {
    std::string label;  ///< for progress lines, e.g. "p3/tls-rr"
    Config config;
  };
  std::vector<Entry> entries;

  void add(std::string label, Config config) {
    entries.push_back(Entry{std::move(label), std::move(config)});
  }
  std::size_t size() const { return entries.size(); }
  bool empty() const { return entries.empty(); }

  /// `replicas` copies of `base` seeded base.seed, +1, ..., so replica i
  /// equals a direct run at seed base.seed + i.
  static Plan replicated(const Config& base, int replicas);

  /// One run of `base` per policy, in the given order (default: FIFO,
  /// TLs-One, TLs-RR — FIFO first so it is the normalization baseline).
  /// Only the policy differs, so a scenario's trace seed is shared and
  /// every policy schedules the identical workload.
  static Plan policy_comparison(
      const Config& base,
      const std::vector<core::PolicyKind>& policies = default_policies());

  /// Row-major placements × policies: entry i*|policies|+j is Table I
  /// placement `table1_indices[i]` under `policies[j]`.
  static Plan placement_sweep(const Config& base,
                              const std::vector<int>& table1_indices,
                              const std::vector<core::PolicyKind>& policies)
    requires std::same_as<Config, exp::ExperimentConfig>;

  /// Row-major batch sizes × policies, same indexing as placement_sweep.
  static Plan batch_sweep(const Config& base,
                          const std::vector<int>& batch_sizes,
                          const std::vector<core::PolicyKind>& policies)
    requires std::same_as<Config, exp::ExperimentConfig>;

  static std::vector<core::PolicyKind> default_policies() {
    return {core::PolicyKind::kFifo, core::PolicyKind::kTlsOne,
            core::PolicyKind::kTlsRR};
  }
};

using RunPlan = Plan<exp::ExperimentConfig>;
using ScenarioPlan = Plan<scenario::Config>;

/// Worker-thread count when RunOptions::jobs is 0:
/// std::thread::hardware_concurrency, at least 1.
int default_jobs();

/// The fan-out under run_plan. Calls run_one(i) for every i in [0, n) on
/// `jobs` threads (0 = default_jobs(); clamped to [1, n]): inline on the
/// caller's thread at one; otherwise each started thread takes the next
/// unclaimed index until none is left. Every call runs even after one
/// throws; the first exception is rethrown once all threads have joined.
void fan_out(std::size_t n, int jobs,
             const std::function<void(std::size_t)>& run_one);

struct RunOptions {
  /// Worker threads; 0 = default_jobs(). 1 runs inline on the caller's
  /// thread and starts none.
  int jobs = 0;
  /// Emit one progress/ETA line per completed run.
  bool progress = false;
  /// Progress destination; nullptr = std::cerr.
  std::ostream* progress_stream = nullptr;
};

template <typename Result>
struct Report {
  /// results[i] corresponds to plan.entries[i], regardless of completion
  /// order.
  std::vector<Result> results;
  std::vector<std::string> labels;
};

using RunReport = Report<exp::ExperimentResult>;
using ScenarioReport = Report<scenario::Result>;

/// Executes every entry through fan_out, rethrowing the first worker
/// exception once every thread has joined. A multi-entry plan derives
/// per-run artifact paths (trace.json -> trace.<label>.json) so parallel
/// runs never share an output file: the seven ObsOptions paths of a static
/// batch, the metrics path of a scenario. A single entry keeps its exact
/// paths.
RunReport run_plan(const RunPlan& plan, const RunOptions& options = {});
ScenarioReport run_plan(const ScenarioPlan& plan,
                        const RunOptions& options = {});

}  // namespace tls::runtime
