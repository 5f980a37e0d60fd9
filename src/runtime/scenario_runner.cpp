#include "runtime/scenario_runner.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "runtime/runner.hpp"

namespace tls::runtime {

void ScenarioPlan::add(std::string label, scenario::Config config) {
  entries.push_back(Entry{std::move(label), std::move(config)});
}

ScenarioPlan ScenarioPlan::policy_comparison(const scenario::Config& base) {
  ScenarioPlan plan;
  for (core::PolicyKind policy : RunPlan::default_policies()) {
    scenario::Config c = base;
    c.controller.policy = policy;
    plan.add(core::to_string(policy), std::move(c));
  }
  return plan;
}

ScenarioReport run_scenario_plan(const ScenarioPlan& plan, int jobs) {
  const std::size_t n = plan.entries.size();
  ScenarioReport report;
  report.results.resize(n);
  report.labels.reserve(n);
  for (const ScenarioPlan::Entry& e : plan.entries) {
    report.labels.push_back(e.label);
  }

  // Multi-entry plans derive per-run metrics paths (metrics.csv ->
  // metrics.<label>.csv) so parallel runs never share an output file.
  std::vector<scenario::Config> configs;
  configs.reserve(n);
  for (const ScenarioPlan::Entry& e : plan.entries) {
    scenario::Config c = e.config;
    if (n > 1 && !c.metrics_path.empty()) {
      c.metrics_path = obs::per_run_path(c.metrics_path, e.label);
    }
    configs.push_back(std::move(c));
  }

  fan_out(n, jobs, [&](std::size_t i) {
    report.results[i] = scenario::run_scenario(configs[i]);
  });
  return report;
}

}  // namespace tls::runtime
