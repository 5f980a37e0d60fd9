// One timed pass in a fresh process: set-up (inputs from the seed), the
// pass through the product entry points, then its output check. Prints
// one JSON line; run.py starts one such process per pass, so no state a
// previous pass left behind (allocator arenas, caches) can speed up the
// next one — users of tlsim and tlsreport pay a cold process per run.
//
//   perfbench_pass --workload NAME --seed N [--scale paper|tiny]
//                  [--setup-only] [--sparse-probe] [--reference]
//
// The JSON line carries pass_start_ns, CLOCK_MONOTONIC when the pass
// began: run.py subtracts the time it spawned this process, so setup_s
// covers exec, loading and static initialisation as well as main's own
// set-up. --setup-only stops there and reports only pass_start_ns.
// --sparse-probe (scenario_churn only) runs the sparse memory probe in
// place of a churn pass; run.py reads its peak_rss_mb in the traced run.
// --reference runs the host-speed reference work instead of a pass and
// reports its seconds; run.py runs it between passes.
// Exit code 0 when the pass passed its output check, 1 when it did not,
// 2 on a usage error.
#include <time.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <string>

#include "reference.hpp"
#include "workloads.hpp"

namespace {

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

int main(int argc, char** argv) {
  using Clock = std::chrono::steady_clock;
  perfbench::scrub_environment();
  perfbench::Args args;
  std::string error;
  if (!perfbench::parse_args(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench_pass: %s\n", error.c_str());
    return 2;
  }
  if (args.reference) {
    const perfbench::ReferenceTimes ref = perfbench::run_reference();
    std::printf("{\"ok\": true, \"ref_s\": %.9g, \"events_s\": %.9g, "
                "\"text_s\": %.9g, \"checksum\": \"%llx\"}\n",
                ref.total(), ref.events_s, ref.text_s, ref.checksum);
    return 0;
  }
  perfbench::Workload workload;
  perfbench::parse_workload(args.workload, &workload);

  std::string failure;
  std::string hash = "-";
  std::string summary;
  std::int64_t pass_start_ns = 0;
  double pass_s = 0;
  std::int64_t iterations = 0;
  try {
    perfbench::Inputs inputs =
        perfbench::make_inputs(workload, args.seed, args.scale,
                               args.sparse_probe);
    pass_start_ns = monotonic_ns();
    if (args.setup_only) {
      std::printf("{\"ok\": true, \"pass_start_ns\": %" PRId64 "}\n",
                  pass_start_ns);
      return 0;
    }
    const Clock::time_point t_pass = Clock::now();
    perfbench::PassOutput out = perfbench::run_pass(inputs);
    pass_s = std::chrono::duration<double>(Clock::now() - t_pass).count();
    iterations = perfbench::job_iterations(inputs, out);
    failure = perfbench::check_pass(inputs, out);
    hash = perfbench::digest(inputs, out, &summary);
    std::printf("params %s\n", perfbench::params_of(inputs).json().c_str());
  } catch (const std::exception& e) {
    failure = std::string("exception: ") + e.what();
  }
  std::printf(
      "{\"ok\": %s, \"why\": %s, \"pass_start_ns\": %" PRId64
      ", \"pass_s\": %.9g, \"iterations\": %" PRId64
      ", \"peak_rss_mb\": %.6f, \"digest\": %s, \"summary\": %s}\n",
      failure.empty() ? "true" : "false",
      perfbench::json_quote(failure).c_str(), pass_start_ns, pass_s,
      iterations, perfbench::peak_rss_mb(), perfbench::json_quote(hash).c_str(),
      perfbench::json_quote(summary).c_str());
  return failure.empty() ? 0 : 1;
}
