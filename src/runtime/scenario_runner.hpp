// Parallel execution of scenario plans (the dynamic-cluster analog of
// RunPlan/run_plan). Entries are fully independent scenario::Configs; the
// plan fans across worker threads through runtime::fan_out and results
// come back keyed by entry index, never by completion order, so a
// parallel plan's output is byte-identical to a serial one.
#pragma once

#include <string>
#include <vector>

#include "scenario/engine.hpp"

namespace tls::runtime {

struct ScenarioPlan {
  struct Entry {
    std::string label;
    scenario::Config config;
  };
  std::vector<Entry> entries;

  void add(std::string label, scenario::Config config);
  std::size_t size() const { return entries.size(); }
  bool empty() const { return entries.empty(); }

  /// One run of `base` per TensorLights policy (FIFO, TLs-One, TLs-RR by
  /// default — FIFO first so it is the comparison baseline). The trace
  /// seed is shared, so every policy schedules the identical workload.
  static ScenarioPlan policy_comparison(const scenario::Config& base);
};

struct ScenarioReport {
  /// results[i] corresponds to plan.entries[i], regardless of completion
  /// order.
  std::vector<scenario::Result> results;
  std::vector<std::string> labels;
};

/// Executes every entry through runtime::fan_out on `jobs` threads
/// (0 = default_jobs(); 1 = inline on the caller's thread), rethrowing the
/// first worker exception once every thread has joined.
ScenarioReport run_scenario_plan(const ScenarioPlan& plan, int jobs = 0);

}  // namespace tls::runtime
