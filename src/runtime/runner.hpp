// tls::runtime — parallel experiment execution engine.
//
// A RunPlan is an ordered list of labelled, fully independent
// ExperimentConfigs (seed replicas, placement sweeps, policy comparisons,
// batch sweeps). run_plan fans the plan's entries across worker threads
// that claim run indices one at a time, and returns results **keyed by run
// index, never by completion order**, so the output of a parallel run is
// byte-identical to a serial one — the repo-wide determinism contract
// survives parallelism untouched (witnessed by
// tests/runtime/runner_test.cpp).
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace tls::runtime {

struct RunPlan {
  struct Entry {
    std::string label;  ///< for progress lines, e.g. "p3/tls-rr"
    exp::ExperimentConfig config;
  };
  std::vector<Entry> entries;

  void add(std::string label, exp::ExperimentConfig config);
  std::size_t size() const { return entries.size(); }
  bool empty() const { return entries.empty(); }

  /// `replicas` copies of `base` seeded base.seed, +1, ..., so replica i
  /// equals a direct run at seed base.seed + i.
  static RunPlan replicated(const exp::ExperimentConfig& base, int replicas);

  /// One run of `base` per policy, in the given order (default: FIFO,
  /// TLs-One, TLs-RR — FIFO first so it is the normalization baseline).
  static RunPlan policy_comparison(
      const exp::ExperimentConfig& base,
      const std::vector<core::PolicyKind>& policies = default_policies());

  /// Row-major placements × policies: entry i*|policies|+j is Table I
  /// placement `table1_indices[i]` under `policies[j]`.
  static RunPlan placement_sweep(const exp::ExperimentConfig& base,
                                 const std::vector<int>& table1_indices,
                                 const std::vector<core::PolicyKind>& policies);

  /// Row-major batch sizes × policies, same indexing as placement_sweep.
  static RunPlan batch_sweep(const exp::ExperimentConfig& base,
                             const std::vector<int>& batch_sizes,
                             const std::vector<core::PolicyKind>& policies);

  static std::vector<core::PolicyKind> default_policies();
};

/// Worker-thread count when RunOptions::jobs is 0:
/// std::thread::hardware_concurrency, at least 1.
int default_jobs();

/// The one fan-out both plan runners share. Calls run_one(i) for every i
/// in [0, n) on `jobs` threads (0 = default_jobs(); clamped to [1, n]):
/// inline on the caller's thread at one; otherwise each started thread
/// takes the next unclaimed index until none is left. Every call runs
/// even after one throws; the first exception is rethrown once all
/// threads have joined.
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

struct RunReport {
  /// results[i] corresponds to plan.entries[i], regardless of completion
  /// order.
  std::vector<exp::ExperimentResult> results;
  std::vector<std::string> labels;
};

/// Executes every entry through fan_out, rethrowing the first worker
/// exception once every thread has joined. A multi-entry plan derives
/// per-run artifact paths (trace.json -> trace.<label>.json) so parallel
/// runs never share an output file; a single entry keeps its exact paths.
RunReport run_plan(const RunPlan& plan, const RunOptions& options = {});

}  // namespace tls::runtime
