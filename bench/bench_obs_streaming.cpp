// Streaming attribution engine benchmark: generate one contended multi-job
// trace, then time the offline path tlsreport runs — the chunked CSV
// reader feeding StreamingAnalyzer one event at a time — reporting
// events/sec (CSV parse included) and the engine's peak retained records
// against the total event count. That is the bounded-memory headline: the
// peak stays a small in-flight window however long the trace is. Rows
// above it time the writer alone (TraceCsvWriter re-rendering the parsed
// trace into memory), the reader alone over the same trace (a sink that
// only counts) and the engine alone (the trace parsed once into memory,
// then ingested and finished), so each layer has a number.
//
// A capture-sampling row (qdisc=16, htb=16) shows the filter layer's effect
// on trace volume while the blame matrix stays integer-exact (analysis
// categories are never sampled).
//
// Exits 1 unless the rewritten CSV is byte-identical to the run's own and
// the offline report to the same run's in-process --report-json.
#include <chrono>  // host wall timing only — bench/ is outside the src/ lint
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/reader.hpp"
#include "obs/streaming.hpp"
#include "obs/trace.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

long events_per_sec(std::uint64_t events, double secs) {
  return secs > 0.0 ? static_cast<long>(static_cast<double>(events) / secs)
                    : 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tls;
  bench::init(argc, argv);
  bench::Timing timing("obs_streaming");
  bench::print_header(
      "Streaming attribution engine - offline throughput and retention",
      "per-iteration blame finalizes as barriers release; retained state is "
      "a bounded in-flight window, not the whole trace");

  // A contended consolidated placement so the blame matrix is non-trivial;
  // scaled like bench_attribution so the tracing run stays in seconds.
  exp::ExperimentConfig c;
  c.num_hosts = 6;
  c.workload.num_jobs = 3;
  c.workload.workers_per_job = 4;
  c.workload.global_step_target = 4L * bench::bench_iters();
  c.placement = cluster::table1(1, 3);
  c.seed = bench::bench_seed();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "tls_bench_obs_streaming")
          .string();
  std::filesystem::create_directories(dir);
  const std::string in_process_json_path = dir + "/report.json";

  // Runs the experiment with a trace CSV; returns the CSV's path.
  auto capture = [&](const char* sample_spec, const std::string& json_path) {
    exp::ExperimentConfig run = c;
    run.obs.trace_sample = sample_spec;
    run.obs.trace_csv_path = dir + std::string("/trace") +
                             (*sample_spec != '\0' ? "_sampled" : "") + ".csv";
    run.obs.report_json_path = json_path;
    exp::run_experiment(run);
    return run.obs.trace_csv_path;
  };

  const std::string trace = capture("", in_process_json_path);
  timing.add_runs(1);

  // The reader alone, then the CSV straight into the engine; each repeated
  // for a stable number.
  const int reps = 3;
  auto p0 = std::chrono::steady_clock::now();
  std::uint64_t parsed = 0;
  for (int r = 0; r < reps; ++r) {
    parsed = 0;
    std::string error;
    if (!obs::for_each_trace_csv_event(
            trace, [&parsed](const obs::TraceEvent&) { ++parsed; }, nullptr,
            &error)) {
      std::fprintf(stderr, "bench_obs_streaming: %s\n", error.c_str());
      return 1;
    }
  }
  double parse_s = seconds_since(p0) / reps;

  // The engine alone: the same trace parsed once into memory, then
  // ingested and finished.
  std::vector<obs::TraceEvent> in_memory;
  std::string read_error;
  if (!obs::for_each_trace_csv_event(
          trace,
          [&in_memory](const obs::TraceEvent& e) { in_memory.push_back(e); },
          nullptr, &read_error)) {
    std::fprintf(stderr, "bench_obs_streaming: %s\n", read_error.c_str());
    return 1;
  }
  // The writer alone: the parsed trace rendered again, into memory.
  std::string rewritten;
  auto w0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    std::ostringstream out;
    obs::TraceCsvWriter writer(out);
    for (const obs::TraceEvent& e : in_memory) writer.on_event(e);
    writer.finish(obs::TraceHealth{});
    rewritten = out.str();
  }
  double write_s = seconds_since(w0) / reps;

  auto e0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    obs::StreamingAnalyzer analyzer;
    for (const obs::TraceEvent& e : in_memory) analyzer.ingest(e);
    analyzer.finish();
  }
  double engine_s = seconds_since(e0) / reps;

  auto t0 = std::chrono::steady_clock::now();
  std::string offline_json;
  std::size_t peak = 0;
  std::uint64_t events = 0;
  for (int r = 0; r < reps; ++r) {
    obs::StreamingAnalyzer analyzer;
    obs::TraceHealth health;
    std::string error;
    if (!obs::for_each_trace_csv_event(
            trace, [&analyzer](const obs::TraceEvent& e) { analyzer.ingest(e); },
            &health, &error)) {
      std::fprintf(stderr, "bench_obs_streaming: %s\n", error.c_str());
      return 1;
    }
    analyzer.set_health(health);
    offline_json = obs::report_json(analyzer.finish());
    peak = analyzer.peak_retained_records();
    events = analyzer.ingested_events();
  }
  double offline_s = seconds_since(t0) / reps;
  const std::string in_process_json = read_file(in_process_json_path);

  const std::string sampled_trace = capture("qdisc=16,htb=16", "");
  timing.add_runs(1);
  std::uint64_t sampled = 0;
  std::string error;
  if (!obs::for_each_trace_csv_event(
          sampled_trace, [&sampled](const obs::TraceEvent&) { ++sampled; },
          nullptr, &error)) {
    std::fprintf(stderr, "bench_obs_streaming: %s\n", error.c_str());
    return 1;
  }

  auto pct_of_events = [events](std::uint64_t n) {
    return events == 0 ? std::string("0") : std::to_string(n * 100 / events);
  };
  metrics::Table table({"trace", "events", "wall ms", "events/sec",
                        "peak retained", "retained %"});
  table.add_row({"csv write only", std::to_string(in_memory.size()),
                 metrics::fmt(write_s * 1e3, 1),
                 std::to_string(events_per_sec(in_memory.size(), write_s)),
                 "-", "-"});
  table.add_row({"csv parse only", std::to_string(parsed),
                 metrics::fmt(parse_s * 1e3, 1),
                 std::to_string(events_per_sec(parsed, parse_s)), "-", "-"});
  table.add_row({"engine only", std::to_string(in_memory.size()),
                 metrics::fmt(engine_s * 1e3, 1),
                 std::to_string(events_per_sec(in_memory.size(), engine_s)),
                 "-", "-"});
  table.add_row({"csv -> streaming", std::to_string(events),
                 metrics::fmt(offline_s * 1e3, 1),
                 std::to_string(events_per_sec(events, offline_s)),
                 std::to_string(peak), pct_of_events(peak)});
  table.add_row({"csv (qdisc=16,htb=16)", std::to_string(sampled), "-", "-",
                 "-", pct_of_events(sampled)});
  std::printf("%s\n", table.str().c_str());

  const bool same_csv = rewritten == read_file(trace);
  std::printf("rewritten CSV == run's CSV: %s\n",
              same_csv ? "yes (byte-for-byte)" : "NO - BUG");
  const bool identical = !offline_json.empty() && offline_json == in_process_json;
  std::printf("offline == in-process report: %s\n",
              identical ? "yes (byte-for-byte)" : "NO - BUG");
  std::printf(
      "\"peak retained\" is the engine's high-water record count; the last\n"
      "row shows capture-sampling shrinking the trace itself while\n"
      "analysis categories stay exact.\n");
  return same_csv && identical ? 0 : 1;
}
