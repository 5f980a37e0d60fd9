// Dynamic-cluster scenario benchmark: long-horizon JCT/utilization under
// churn, the regime the paper's static 21-host testbed never reaches.
//
// Three measurements:
//   1. Policy comparison — FIFO vs TLs-One vs TLs-RR over the identical
//      >= 1 h, >= 100-job Poisson trace (shared trace seed, per-policy
//      noise streams).
//   2. Band exhaustion — a small cluster under a heavy burst pushes PS
//      colocation past tc's 6-band budget: `share` admits and folds jobs
//      into shared bands (priorities stop being distinct), `queue` holds
//      them and queueing delay becomes the cost.
//   3. Rotation thrash — TLs-RR at a 1 s interval vs the paper's 20 s:
//      rotations and tc churn explode while JCT does not improve.
//
// Knobs:
//   TLS_BENCH_SCENARIO_JOBS   trace length for the policy comparison
//                             (default 120)
//   TLS_BENCH_SCENARIO_HOSTS  cluster size for the policy comparison
//                             (default 12)
//   TLS_BENCH_JOBS/--jobs     worker threads (results byte-identical at
//                             any thread count)
//   TLS_BENCH_JSON_DIR        where BENCH_scenario.json lands
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "metrics/report.hpp"
#include "runtime/runner.hpp"

namespace {

using tls::bench::env_long;
using tls::runtime::ScenarioPlan;
using tls::runtime::ScenarioReport;
using tls::scenario::Config;
using tls::scenario::Result;
namespace metrics = tls::metrics;
namespace sim = tls::sim;

// The ranges of tlsim's --scenario-jobs and --hosts.
long scenario_jobs() {
  return env_long("TLS_BENCH_SCENARIO_JOBS", 120, 1, 100000);
}
long scenario_hosts() { return env_long("TLS_BENCH_SCENARIO_HOSTS", 12, 2, 4096); }

/// The >= 1 h policy-comparison workload: Poisson arrivals at a 36 s mean
/// spread `scenario_jobs()` jobs over ~72 min of simulated time. The
/// cluster mirrors the paper's contention setting: a role-agnostic
/// production scheduler (PS colocation emerges naturally, Section II),
/// batch 1 and a 2.5 Gb/s link so model updates — not compute — are the
/// bottleneck the bands arbitrate.
Config comparison_config() {
  Config c;
  c.num_hosts = static_cast<int>(scenario_hosts());
  c.cores_per_host = 6;
  c.scheduler = tls::cluster::SchedulerPolicy::kPsAgnostic;
  c.fabric.link_rate = tls::net::gbps(2.5);
  c.trace.num_jobs = static_cast<int>(scenario_jobs());
  c.trace.mean_interarrival_s = 36;
  c.trace.min_workers = 4;
  c.trace.max_workers = 8;
  c.trace.min_iterations = 40;
  c.trace.max_iterations = 160;
  c.trace.local_batch_size = 1;
  c.trace.evict_fraction = 0.1;  // light churn, as real clusters see
  c.trace.evict_min_s = 30;
  c.trace.evict_max_s = 120;
  c.trace.seed = tls::bench::bench_seed();
  c.seed = tls::bench::bench_seed() + 1;
  c.sample_period = sim::Time{0};  // occupancy gauges are not measured here
  return c;
}

/// Break-regime workload: a 4-host cluster hit by a 1 s-mean burst, so
/// tens of jobs overlap and per-host PS counts blow past the 6-band
/// budget.
Config burst_config(tls::cluster::AdmissionPolicy admission) {
  Config c;
  c.num_hosts = 4;
  c.cores_per_host = 6;
  c.admission = admission;
  c.controller.policy = tls::core::PolicyKind::kTlsOne;
  c.fabric.link_rate = tls::net::gbps(2.5);
  c.trace.num_jobs = 60;
  c.trace.mean_interarrival_s = 0.5;
  c.trace.min_workers = 2;
  c.trace.max_workers = 3;
  c.trace.min_iterations = 40;
  c.trace.max_iterations = 80;
  c.trace.local_batch_size = 1;
  c.trace.seed = tls::bench::bench_seed();
  c.seed = tls::bench::bench_seed() + 1;
  c.sample_period = sim::Time{0};
  return c;
}

Config rotation_config(sim::Time interval) {
  Config c = burst_config(tls::cluster::AdmissionPolicy::kShareBand);
  c.controller.policy = tls::core::PolicyKind::kTlsRR;
  c.controller.rotation_interval = interval;
  return c;
}

void add_row(metrics::Table& table, const std::string& label, const Result& r) {
  table.add_row({label, std::to_string(r.completed),
                 std::to_string(r.evicted + r.rejected + r.unfinished),
                 metrics::fmt(r.jct.mean), metrics::fmt(r.jct.median),
                 metrics::fmt(r.jct.p99), metrics::fmt(r.queue_wait.mean),
                 std::to_string(r.peak_ps_colocation),
                 metrics::fmt(r.cluster_cpu_util, 3),
                 std::to_string(r.rotations), std::to_string(r.tc_commands),
                 metrics::fmt(r.horizon_s, 1)});
}

}  // namespace

int main(int argc, char** argv) {
  tls::bench::init(argc, argv);
  auto wall_start = std::chrono::steady_clock::now();
  tls::bench::print_header(
      "Dynamic cluster: trace-driven churn scenarios (tls::scenario)",
      "TensorLights holds its JCT advantage as jobs arrive and depart; "
      "past 6 colocated PS jobs tc's band budget is the binding constraint");

  tls::runtime::RunOptions options;
  options.jobs = static_cast<int>(tls::bench::bench_jobs());
  long runs = 0;

  // --- 1. Policy comparison over the shared long-horizon trace. ---------
  ScenarioPlan plan = ScenarioPlan::policy_comparison(comparison_config());
  ScenarioReport cmp = tls::runtime::run_plan(plan, options);
  runs += static_cast<long>(cmp.results.size());

  metrics::Table table({"policy", "done", "other", "mean JCT (s)",
                        "p50 JCT", "p99 JCT", "mean wait (s)", "peak coloc",
                        "cpu util", "rotations", "tc cmds", "horizon (s)"});
  for (std::size_t i = 0; i < cmp.results.size(); ++i) {
    add_row(table, cmp.labels[i], cmp.results[i]);
  }
  std::printf("%ld-job Poisson trace, %ld hosts, identical workload per "
              "policy:\n\n%s\n",
              scenario_jobs(), scenario_hosts(), table.str().c_str());

  // --- 2. Band exhaustion: share vs queue under a burst. ----------------
  ScenarioPlan burst;
  burst.add("share-band", burst_config(tls::cluster::AdmissionPolicy::kShareBand));
  burst.add("queue", burst_config(tls::cluster::AdmissionPolicy::kQueue));
  ScenarioReport exhaust = tls::runtime::run_plan(burst, options);
  runs += static_cast<long>(exhaust.results.size());
  const Result& share = exhaust.results[0];
  const Result& queue = exhaust.results[1];

  metrics::Table btable({"admission", "done", "other", "mean JCT (s)",
                         "p50 JCT", "p99 JCT", "mean wait (s)", "peak coloc",
                         "cpu util", "rotations", "tc cmds", "horizon (s)"});
  add_row(btable, exhaust.labels[0], share);
  add_row(btable, exhaust.labels[1], queue);
  std::printf("Band exhaustion (4 hosts, 60 jobs at 0.5 s mean interarrival, "
              "6-band budget):\n\n%s\n",
              btable.str().c_str());
  std::printf("  share-band peak colocation %d (budget 6): %s\n\n",
              share.peak_ps_colocation,
              share.peak_ps_colocation > 6
                  ? "budget exceeded — bands shared, priorities collapse"
                  : "within budget at this scale");

  // --- 3. Rotation thrash: 1 s vs the paper's 20 s interval. ------------
  ScenarioPlan rot;
  rot.add("RR-1s", rotation_config(1 * sim::kSecond));
  rot.add("RR-20s", rotation_config(20 * sim::kSecond));
  ScenarioReport thrash = tls::runtime::run_plan(rot, options);
  runs += static_cast<long>(thrash.results.size());
  const Result& fast = thrash.results[0];
  const Result& slow = thrash.results[1];

  metrics::Table rtable({"interval", "done", "other", "mean JCT (s)",
                         "p50 JCT", "p99 JCT", "mean wait (s)", "peak coloc",
                         "cpu util", "rotations", "tc cmds", "horizon (s)"});
  add_row(rtable, thrash.labels[0], fast);
  add_row(rtable, thrash.labels[1], slow);
  std::printf("Rotation thrash (TLs-RR on the burst trace):\n\n%s\n",
              rtable.str().c_str());
  std::printf("  1 s rotation issues %.1fx the tc commands of 20 s for a "
              "%.1f%% JCT change\n\n",
              slow.tc_commands > 0
                  ? static_cast<double>(fast.tc_commands) /
                        static_cast<double>(slow.tc_commands)
                  : 0.0,
              slow.jct.mean > 0
                  ? 100.0 * (fast.jct.mean - slow.jct.mean) / slow.jct.mean
                  : 0.0);

  // --- Machine-readable summary (richer than bench::Timing's schema). ---
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  const char* dir = std::getenv("TLS_BENCH_JSON_DIR");
  std::string path = std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
                     "/BENCH_scenario.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"scenario\",\n"
                 "  \"wall_s\": %.6f,\n"
                 "  \"runs\": %ld,\n"
                 "  \"jobs\": %lld,\n"
                 "  \"seed\": %llu,\n"
                 "  \"trace_jobs\": %ld,\n"
                 "  \"hosts\": %ld,\n"
                 "  \"horizon_s\": %.6f,\n"
                 "  \"policies\": [\n",
                 wall_s, runs,
                 static_cast<long long>(tls::bench::resolved_jobs()),
                 static_cast<unsigned long long>(tls::bench::bench_seed()),
                 scenario_jobs(), scenario_hosts(),
                 cmp.results.empty() ? 0.0 : cmp.results[0].horizon_s);
    for (std::size_t i = 0; i < cmp.results.size(); ++i) {
      const Result& r = cmp.results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"completed\": %zu, "
                   "\"mean_jct_s\": %.6f, \"p99_jct_s\": %.6f, "
                   "\"mean_wait_s\": %.6f, \"peak_ps_colocation\": %d, "
                   "\"rotations\": %llu, \"tc_commands\": %llu}%s\n",
                   cmp.labels[i].c_str(), r.completed, r.jct.mean, r.jct.p99,
                   r.queue_wait.mean, r.peak_ps_colocation,
                   static_cast<unsigned long long>(r.rotations),
                   static_cast<unsigned long long>(r.tc_commands),
                   i + 1 < cmp.results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"band_exhaustion\": {\n"
                 "    \"band_budget\": 6,\n"
                 "    \"share_peak_ps_colocation\": %d,\n"
                 "    \"share_mean_jct_s\": %.6f,\n"
                 "    \"queue_mean_wait_s\": %.6f,\n"
                 "    \"queue_p99_wait_s\": %.6f,\n"
                 "    \"budget_exceeded\": %s\n"
                 "  },\n"
                 "  \"rotation_thrash\": {\n"
                 "    \"fast_interval_s\": 1,\n"
                 "    \"slow_interval_s\": 20,\n"
                 "    \"fast_rotations\": %llu,\n"
                 "    \"slow_rotations\": %llu,\n"
                 "    \"fast_tc_commands\": %llu,\n"
                 "    \"slow_tc_commands\": %llu,\n"
                 "    \"fast_mean_jct_s\": %.6f,\n"
                 "    \"slow_mean_jct_s\": %.6f\n"
                 "  }\n"
                 "}\n",
                 share.peak_ps_colocation, share.jct.mean, queue.queue_wait.mean,
                 queue.queue_wait.p99,
                 share.peak_ps_colocation > 6 ? "true" : "false",
                 static_cast<unsigned long long>(fast.rotations),
                 static_cast<unsigned long long>(slow.rotations),
                 static_cast<unsigned long long>(fast.tc_commands),
                 static_cast<unsigned long long>(slow.tc_commands),
                 fast.jct.mean, slow.jct.mean);
    std::fclose(f);
  }
  return 0;
}
