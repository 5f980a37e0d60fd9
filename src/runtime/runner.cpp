#include "runtime/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>  // host wall clock for progress/ETA only; see allowlist
#include <cstdio>
#include <exception>
#include <iostream>
#include <mutex>
#include <thread>

#include "obs/trace.hpp"

namespace tls::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Serialized progress/ETA lines; completion order is allowed to show here
/// (it is the one place parallel nondeterminism is visible), results never
/// reorder.
class Progress {
 public:
  Progress(std::size_t total, bool enabled, std::ostream* stream)
      : total_(total),
        enabled_(enabled),
        stream_(stream != nullptr ? stream : &std::cerr),
        start_(Clock::now()) {}

  void tick(const std::string& label) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    double elapsed = seconds_since(start_);
    double eta = elapsed / static_cast<double>(done_) *
                 static_cast<double>(total_ - done_);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "[tls::runtime %zu/%zu] %s  elapsed %.1fs eta %.1fs\n",
                  done_, total_, label.c_str(), elapsed, eta);
    (*stream_) << line << std::flush;
  }

 private:
  std::size_t total_;
  bool enabled_;
  std::ostream* stream_;
  Clock::time_point start_;
  std::mutex mu_;
  std::size_t done_ = 0;
};

}  // namespace

template <typename Config>
Plan<Config> Plan<Config>::replicated(const Config& base, int replicas) {
  Plan plan;
  for (int i = 0; i < replicas; ++i) {
    Config c = base;
    c.seed = base.seed + static_cast<std::uint64_t>(i);
    plan.add("seed" + std::to_string(c.seed), std::move(c));
  }
  return plan;
}

template <typename Config>
Plan<Config> Plan<Config>::policy_comparison(
    const Config& base, const std::vector<core::PolicyKind>& policies) {
  Plan plan;
  for (core::PolicyKind policy : policies) {
    Config c = base;
    c.controller.policy = policy;
    plan.add(core::to_string(policy), std::move(c));
  }
  return plan;
}

template <typename Config>
Plan<Config> Plan<Config>::placement_sweep(
    const Config& base, const std::vector<int>& table1_indices,
    const std::vector<core::PolicyKind>& policies)
  requires std::same_as<Config, exp::ExperimentConfig>
{
  Plan plan;
  for (int index : table1_indices) {
    Config c = base;
    c.placement = cluster::table1(index, base.workload.num_jobs);
    for (core::PolicyKind policy : policies) {
      plan.add("p" + std::to_string(index) + "/" + core::to_string(policy),
               exp::with_policy(c, policy));
    }
  }
  return plan;
}

template <typename Config>
Plan<Config> Plan<Config>::batch_sweep(
    const Config& base, const std::vector<int>& batch_sizes,
    const std::vector<core::PolicyKind>& policies)
  requires std::same_as<Config, exp::ExperimentConfig>
{
  Plan plan;
  for (int batch : batch_sizes) {
    Config c = base;
    c.workload.local_batch_size = batch;
    for (core::PolicyKind policy : policies) {
      plan.add("b" + std::to_string(batch) + "/" + core::to_string(policy),
               exp::with_policy(c, policy));
    }
  }
  return plan;
}

template struct Plan<exp::ExperimentConfig>;
template struct Plan<scenario::Config>;

int default_jobs() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void fan_out(std::size_t n, int jobs,
             const std::function<void(std::size_t)>& run_one) {
  if (jobs <= 0) jobs = default_jobs();
  if (static_cast<std::size_t>(jobs) > n) jobs = static_cast<int>(n);
  jobs = std::max(jobs, 1);

  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  // Each call writes only its own result slot; the claim counter and the
  // error slot are the sole state shared here.
  auto drain = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        run_one(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
  };
  if (jobs == 1) {
    drain();
  } else {
    // jthreads join as the vector dies, also when a later one fails to
    // start: the running ones then claim every index that is left.
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) threads.emplace_back(drain);
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

namespace {

void derive_paths(exp::ExperimentConfig& c, const std::string& label) {
  exp::ObsOptions& o = c.obs;
  for (std::string* path :
       {&o.trace_path, &o.trace_csv_path, &o.metrics_path, &o.report_path,
        &o.report_csv_path, &o.report_json_path, &o.report_html_path}) {
    *path = obs::per_run_path(*path, label);
  }
}

void derive_paths(scenario::Config& c, const std::string& label) {
  c.metrics_path = obs::per_run_path(c.metrics_path, label);
}

template <typename Config, typename Result>
Report<Result> run_entries(const Plan<Config>& plan, const RunOptions& options,
                           Result (*run_one)(const Config&)) {
  const std::size_t n = plan.entries.size();
  Report<Result> report;
  report.results.resize(n);
  report.labels.reserve(n);
  std::vector<Config> configs;
  configs.reserve(n);
  for (const typename Plan<Config>::Entry& e : plan.entries) {
    report.labels.push_back(e.label);
    Config c = e.config;
    if (n > 1) derive_paths(c, e.label);
    configs.push_back(std::move(c));
  }

  Progress progress(n, options.progress, options.progress_stream);
  // Each call writes only results[i]; the progress lines synchronize
  // themselves.
  fan_out(n, options.jobs, [&](std::size_t i) {
    report.results[i] = run_one(configs[i]);
    progress.tick(plan.entries[i].label);
  });
  return report;
}

}  // namespace

RunReport run_plan(const RunPlan& plan, const RunOptions& options) {
  return run_entries(plan, options, &exp::run_experiment);
}

ScenarioReport run_plan(const ScenarioPlan& plan, const RunOptions& options) {
  return run_entries(plan, options, &scenario::run_scenario);
}

}  // namespace tls::runtime
