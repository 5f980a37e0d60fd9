// Observability overhead on the Figure-2 sweep: the same eight-placement
// FIFO run timed three ways —
//   off       no obs options; the tracer is never constructed, emission
//             sites cost one null-pointer check
//   disabled  tracer attached with an empty category mask and no registry
//             (the --trace-filter none path): sites additionally call
//             active() and skip
//   enabled   full event log + metrics registry + artifact export
//
// The acceptance bar is the "disabled" column: attaching an inert tracer
// must stay within ~2% of a run that never sees one. The two run the same
// data path and differ by less than host drift between two single shots,
// so "off" and "disabled" alternate three times and each reports its
// median. Results land in BENCH_obs_overhead.json alongside the usual
// bench timing files, with the same "wall_s" (all seven sweeps) and "runs"
// keys they carry, so bench_diff compares it like the others.
#include <chrono>  // host wall timing only — bench/ is outside the src/ lint
#include <filesystem>
#include <numeric>

#include "common.hpp"
#include "metrics/stats.hpp"
#include "obs/trace.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Runs the fig2 sweep once with whatever obs options `decorate` installs
/// and returns the wall seconds.
template <typename Decorate>
double timed_sweep(Decorate decorate) {
  using namespace tls;
  std::vector<exp::ExperimentConfig> configs;
  for (int index = 1; index <= 8; ++index) {
    exp::ExperimentConfig c = bench::paper_config();
    c.placement = cluster::table1(index, 21);
    c.controller.policy = core::PolicyKind::kFifo;
    decorate(c, index);
    configs.push_back(std::move(c));
  }
  runtime::RunPlan plan;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    plan.add("p" + std::to_string(i + 1), configs[i]);
  }
  runtime::RunOptions options;
  options.jobs = static_cast<int>(tls::bench::bench_jobs());
  options.progress = tls::bench::bench_progress();
  Clock::time_point t0 = Clock::now();
  runtime::run_plan(plan, options);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tls;
  bench::init(argc, argv);
  bench::print_header(
      "Observability overhead - fig2 sweep: off vs disabled vs enabled",
      "trace/metrics hooks must be free when not requested (<2% disabled)");

  const std::string out_dir = "obs_overhead_artifacts";
  std::filesystem::create_directories(out_dir);

  constexpr int kPairs = 3;
  std::vector<double> off_runs, disabled_runs;
  for (int i = 0; i < kPairs; ++i) {
    off_runs.push_back(timed_sweep([](exp::ExperimentConfig&, int) {}));
    disabled_runs.push_back(timed_sweep([&](exp::ExperimentConfig& c, int) {
      // Artifact requested but every category masked off and no metrics:
      // the tracer is attached yet inert, the --trace-filter none path.
      c.obs.trace_path = out_dir + "/disabled.json";
      c.obs.trace_categories = 0;
      c.obs.sample_period = tls::sim::Time{0};
    }));
  }
  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  double off_s = metrics::summarize(off_runs).median;
  double disabled_s = metrics::summarize(disabled_runs).median;
  double enabled_s = timed_sweep([&](exp::ExperimentConfig& c, int) {
    c.obs.trace_path = out_dir + "/trace.json";
    c.obs.metrics_path = out_dir + "/metrics.csv";
    // Cap the in-memory event log so eight concurrent paper-scale runs
    // stay bounded; drops are counted, emission work still happens.
    c.obs.max_events = 250'000;
  });

  double disabled_frac = off_s > 0 ? (disabled_s - off_s) / off_s : 0;
  double enabled_frac = off_s > 0 ? (enabled_s - off_s) / off_s : 0;

  metrics::Table table({"mode", "wall (s)", "overhead vs off"});
  table.add_row({"off", metrics::fmt(off_s, 2), "-"});
  table.add_row({"disabled", metrics::fmt(disabled_s, 2),
                 metrics::fmt_percent(disabled_frac, 1)});
  table.add_row({"enabled", metrics::fmt(enabled_s, 2),
                 metrics::fmt_percent(enabled_frac, 1)});
  std::printf("%s\n", table.str().c_str());
  std::printf("off and disabled: median of %d alternating sweeps each\n",
              kPairs);
  std::printf("Disabled-mode bar: <2%%  ->  %s\n",
              disabled_frac < 0.02 ? "within bar" : "EXCEEDED");

  const char* dir = std::getenv("TLS_BENCH_JSON_DIR");
  std::string path =
      std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
      "/BENCH_obs_overhead.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"obs_overhead\",\n"
                 "  \"wall_s\": %.6f,\n"
                 "  \"runs\": 56,\n"
                 "  \"wall_s_off\": %.6f,\n"
                 "  \"wall_s_disabled\": %.6f,\n"
                 "  \"wall_s_enabled\": %.6f,\n"
                 "  \"overhead_disabled_frac\": %.6f,\n"
                 "  \"overhead_enabled_frac\": %.6f,\n"
                 "  \"runs_per_sweep\": 8,\n"
                 "  \"off_disabled_pairs\": %d,\n"
                 "  \"jobs\": %lld,\n"
                 "  \"iters\": %lld,\n"
                 "  \"seed\": %llu\n"
                 "}\n",
                 sum(off_runs) + sum(disabled_runs) + enabled_s, off_s,
                 disabled_s, enabled_s, disabled_frac, enabled_frac, kPairs,
                 static_cast<long long>(bench::resolved_jobs()),
                 static_cast<long long>(bench::bench_iters()),
                 static_cast<unsigned long long>(bench::bench_seed()));
    std::fclose(f);
  }
  return 0;
}
