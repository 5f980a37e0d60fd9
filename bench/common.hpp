// Shared helpers for the figure/table reproduction harnesses.
//
// Scale knobs (environment variables, or the matching command-line flag),
// each in the range tlsim gives the same knob:
//   TLS_BENCH_ITERS  / --iters N   iterations per job, [1, 1e6]
//                                  (default 60; paper: 1500)
//   TLS_BENCH_SEED   / --seed N    base RNG seed, [0, 2^62) (default 1)
//   TLS_BENCH_JOBS   / --jobs N    worker threads for independent runs,
//                                  [0, 4096] like tlsim --threads
//                                  (default 0 = hardware concurrency; results
//                                  are byte-identical at any thread count)
//   TLS_BENCH_PROGRESS             1 = per-run progress/ETA lines on stderr
//   TLS_BENCH_JSON_DIR             where BENCH_<name>.json timing files land
//                                  (default: current directory)
//
// The flags are read as tlsim and tlsreport read theirs (simcore/flags.hpp):
// --k v or --k=v, the last one wins, and a flag overrides its variable. Any
// other argument, or a missing, empty, malformed or out-of-range value,
// ends the bench with exit 2 and a message.
//
// Absolute times scale with TLS_BENCH_ITERS; the ratios the paper reports
// stabilize after a few tens of iterations.
#pragma once

#include <chrono>  // host wall timing only — bench/ is outside the src/ lint
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"
#include "metrics/report.hpp"
#include "runtime/runner.hpp"
#include "simcore/flags.hpp"
#include "simcore/parse.hpp"

namespace tls::bench {

/// An integer knob from the environment: unset or empty yields `fallback`,
/// and a value that is not a whole decimal in [lo, hi] ends the bench with
/// exit 2 rather than running at a size nobody asked for.
inline long env_long(const char* name, long fallback, long lo, long hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long out = 0;
  if (!sim::parse_int(v, &out, lo, hi)) {
    std::fprintf(stderr, "bad value for %s: '%s'\n", name, v);
    std::exit(2);
  }
  return out;
}

/// A scale knob: its flag, its variable, its default and tlsim's range.
struct Knob {
  std::string_view flag;
  const char* env;
  long fallback;
  long lo;
  long hi;

  long read() const { return env_long(env, fallback, lo, hi); }
};
inline constexpr Knob kKnobs[] = {
    {"iters", "TLS_BENCH_ITERS", 60, 1, 1'000'000},
    {"seed", "TLS_BENCH_SEED", 1, 0, INT64_MAX / 2},
    {"jobs", "TLS_BENCH_JOBS", 0, 0, 4096},
};

inline long bench_iters() { return kKnobs[0].read(); }
inline std::uint64_t bench_seed() {
  return static_cast<std::uint64_t>(kKnobs[1].read());
}
/// Requested worker-thread count; 0 = auto (hardware concurrency).
inline long bench_jobs() { return kKnobs[2].read(); }
/// TLS_BENCH_PROGRESS=1: per-run progress lines on stderr.
inline bool bench_progress() {
  return env_long("TLS_BENCH_PROGRESS", 0, 0, 1) != 0;
}
/// The thread count a bench will actually use.
inline long resolved_jobs() {
  long jobs = bench_jobs();
  return jobs > 0 ? jobs : tls::runtime::default_jobs();
}

/// Reads `--iters/--seed/--jobs N` with the reader tlsim and tlsreport
/// share (simcore/flags.hpp) and exports them as the TLS_BENCH_* variables,
/// so both spellings behave identically everywhere downstream. An unknown
/// flag, a missing, empty, malformed or out-of-range value (of a flag or of
/// a variable), or a positional argument ends the bench with exit 2 before
/// it prints anything. Call first thing in every bench main().
inline void init(int argc, char** argv) {
  constexpr std::string_view kFlags[] = {kKnobs[0].flag, kKnobs[1].flag,
                                         kKnobs[2].flag};
  std::string_view name = argv[0];
  if (std::size_t slash = name.rfind('/'); slash != name.npos) {
    name.remove_prefix(slash + 1);
  }
  sim::CliArgs args;
  std::string error;
  bool ok = sim::parse_args(std::vector<std::string>(argv + 1, argv + argc),
                            {}, kFlags, &args, &error) &&
            sim::check_flags(args, name, kFlags, &error);
  if (ok && !args.positional.empty()) {
    error = "unexpected argument '" + args.positional.front() + "'";
    ok = false;
  }
  sim::FlagReader flags(args);
  for (const Knob& knob : kKnobs) {
    flags.integer(std::string(knob.flag), knob.fallback, knob.lo, knob.hi);
  }
  if (!ok || !flags.ok(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
  for (const Knob& knob : kKnobs) {
    std::string flag(knob.flag);
    if (args.has(flag)) ::setenv(knob.env, args.get(flag).c_str(), 1);
    knob.read();
  }
  bench_progress();
}

/// The paper's testbed configuration: 21 hosts, 21 concurrent ResNet-32
/// grid-search jobs, 1 PS + 20 workers each, synchronous, batch 4.
inline exp::ExperimentConfig paper_config() {
  exp::ExperimentConfig c;
  c.num_hosts = 21;
  c.workload.num_jobs = 21;
  c.workload.workers_per_job = 20;
  c.workload.local_batch_size = 4;
  c.workload.global_step_target = 20L * bench_iters();
  c.placement = cluster::table1(1, 21);
  c.seed = bench_seed();
  // Rotation interval scaled to the shortened runs (paper: 20 s over
  // thousands of seconds; here ~1/4 of the run, same ratio ballpark).
  c.controller.rotation_interval = 10 * sim::kSecond;
  return c;
}

/// Machine-readable per-bench timing: construct at the top of main(),
/// count simulated runs via add_runs(); the destructor writes
//  $TLS_BENCH_JSON_DIR/BENCH_<name>.json so the perf trajectory of every
/// bench is tracked across revisions.
class Timing {
 public:
  explicit Timing(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  Timing(const Timing&) = delete;
  Timing& operator=(const Timing&) = delete;

  void add_runs(long runs) { runs_ += runs; }

  ~Timing() {
    double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const char* dir = std::getenv("TLS_BENCH_JSON_DIR");
    std::string path = std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
                       "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;  // timing is best-effort, never fails a bench
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"wall_s\": %.6f,\n"
                 "  \"runs\": %lld,\n"
                 "  \"jobs\": %lld,\n"
                 "  \"iters\": %lld,\n"
                 "  \"seed\": %llu\n"
                 "}\n",
                 name_.c_str(), wall_s, static_cast<long long>(runs_),
                 static_cast<long long>(resolved_jobs()),
                 static_cast<long long>(bench_iters()),
                 static_cast<unsigned long long>(bench_seed()));
    std::fclose(f);
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  long runs_ = 0;
};

/// Fans `configs` across TLS_BENCH_JOBS tls::runtime threads and returns
/// results in submission order — the parallel output is
/// byte-identical to a serial loop.
inline std::vector<exp::ExperimentResult> run_all(
    const std::vector<exp::ExperimentConfig>& configs,
    Timing* timing = nullptr) {
  runtime::RunPlan plan;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    plan.add("run" + std::to_string(i), configs[i]);
  }
  runtime::RunOptions options;
  options.jobs = static_cast<int>(bench_jobs());
  options.progress = bench_progress();
  runtime::RunReport report = runtime::run_plan(plan, options);
  if (timing != nullptr) timing->add_runs(static_cast<long>(configs.size()));
  return std::move(report.results);
}

inline void print_header(const char* experiment, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper: %s\n", paper_claim);
  // Format audit: long long / unsigned long long with matching casts —
  // long-vs-int64 specifier mismatches here once broke 32-bit builds.
  std::printf("Iterations/job: %lld (paper: 1500), seed: %llu, jobs: %lld\n",
              static_cast<long long>(bench_iters()),
              static_cast<unsigned long long>(bench_seed()),
              static_cast<long long>(resolved_jobs()));
  std::printf("==============================================================\n\n");
}

/// One Figure-3/6 style CDF row set: quantiles of a sample vector.
inline void print_cdf_rows(metrics::Table& table, const std::string& label,
                           const std::vector<double>& samples, double scale,
                           const char* unit) {
  metrics::Cdf cdf(samples);
  table.add_row({label,
                 metrics::fmt(cdf.value_at(0.10) * scale, 1),
                 metrics::fmt(cdf.value_at(0.25) * scale, 1),
                 metrics::fmt(cdf.value_at(0.50) * scale, 1),
                 metrics::fmt(cdf.value_at(0.75) * scale, 1),
                 metrics::fmt(cdf.value_at(0.90) * scale, 1),
                 metrics::fmt(cdf.mean() * scale, 1), unit});
}

}  // namespace tls::bench
