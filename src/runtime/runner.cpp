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

void RunPlan::add(std::string label, exp::ExperimentConfig config) {
  entries.push_back(Entry{std::move(label), std::move(config)});
}

std::vector<core::PolicyKind> RunPlan::default_policies() {
  return {core::PolicyKind::kFifo, core::PolicyKind::kTlsOne,
          core::PolicyKind::kTlsRR};
}

RunPlan RunPlan::replicated(const exp::ExperimentConfig& base, int replicas) {
  RunPlan plan;
  for (int i = 0; i < replicas; ++i) {
    exp::ExperimentConfig c = base;
    c.seed = base.seed + static_cast<std::uint64_t>(i);
    plan.add("seed" + std::to_string(c.seed), std::move(c));
  }
  return plan;
}

RunPlan RunPlan::policy_comparison(
    const exp::ExperimentConfig& base,
    const std::vector<core::PolicyKind>& policies) {
  RunPlan plan;
  for (core::PolicyKind policy : policies) {
    plan.add(core::to_string(policy), exp::with_policy(base, policy));
  }
  return plan;
}

RunPlan RunPlan::placement_sweep(
    const exp::ExperimentConfig& base, const std::vector<int>& table1_indices,
    const std::vector<core::PolicyKind>& policies) {
  RunPlan plan;
  for (int index : table1_indices) {
    exp::ExperimentConfig c = base;
    c.placement = cluster::table1(index, base.workload.num_jobs);
    for (core::PolicyKind policy : policies) {
      plan.add("p" + std::to_string(index) + "/" + core::to_string(policy),
               exp::with_policy(c, policy));
    }
  }
  return plan;
}

RunPlan RunPlan::batch_sweep(const exp::ExperimentConfig& base,
                             const std::vector<int>& batch_sizes,
                             const std::vector<core::PolicyKind>& policies) {
  RunPlan plan;
  for (int batch : batch_sizes) {
    exp::ExperimentConfig c = base;
    c.workload.local_batch_size = batch;
    for (core::PolicyKind policy : policies) {
      plan.add("b" + std::to_string(batch) + "/" + core::to_string(policy),
               exp::with_policy(c, policy));
    }
  }
  return plan;
}

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

RunReport run_plan(const RunPlan& plan, const RunOptions& options) {
  const std::size_t n = plan.entries.size();

  RunReport report;
  report.results.resize(n);
  report.labels.reserve(n);
  for (const RunPlan::Entry& e : plan.entries) report.labels.push_back(e.label);

  std::vector<exp::ExperimentConfig> configs;
  configs.reserve(n);
  for (const RunPlan::Entry& e : plan.entries) {
    exp::ExperimentConfig c = e.config;
    if (n > 1 && c.obs.any()) {
      c.obs.trace_path = obs::per_run_path(c.obs.trace_path, e.label);
      c.obs.trace_csv_path = obs::per_run_path(c.obs.trace_csv_path, e.label);
      c.obs.metrics_path = obs::per_run_path(c.obs.metrics_path, e.label);
      c.obs.report_path = obs::per_run_path(c.obs.report_path, e.label);
      c.obs.report_csv_path =
          obs::per_run_path(c.obs.report_csv_path, e.label);
      c.obs.report_json_path =
          obs::per_run_path(c.obs.report_json_path, e.label);
      c.obs.report_html_path =
          obs::per_run_path(c.obs.report_html_path, e.label);
    }
    configs.push_back(std::move(c));
  }

  Progress progress(n, options.progress, options.progress_stream);
  // Each call writes only results[i]; the progress lines synchronize
  // themselves.
  fan_out(n, options.jobs, [&](std::size_t i) {
    report.results[i] = exp::run_experiment(configs[i]);
    progress.tick(plan.entries[i].label);
  });
  return report;
}

}  // namespace tls::runtime
