// Attribution sweep over the Figure-5a placement axis: for every Table I
// placement, run FIFO and TLs-One over the same seed and report where the
// barrier wait goes (egress-queueing and fan-in shares of the critical
// path) and who is to blame on both sides of the fabric — cross-job bytes
// drained ahead of critical chunks at the sender's egress port, and
// cross-job bytes delivered ahead at the receiver's ingress port.
//
// This is the mechanism behind Fig. 5a's shape: consolidated placements
// (#1..#3) put PS shards of competing jobs on shared hosts, so FIFO shows
// cross-job blame and TLs-One removes it for the prioritized job; dispersed
// placements (#4+) never contend, all policies look alike, and the blame
// columns are zero everywhere — attribution certifies *why* the JCT bars
// converge, not just that they do.
//
// BENCH_attribution.json carries the full two-sided axis (per placement,
// per policy, per blame side) on top of the usual wall-clock header, so
// tools/bench_diff can track the blame trajectory across revisions.
//
// Scaled-down cluster (6 hosts / 3 jobs / 4 workers) so the full sweep
// with tracing stays in seconds; the contention mechanism is the same as
// at paper scale. Placements #5/#6 need more than 3 PS groups and are
// skipped at this job count.
#include <chrono>  // host wall timing only — bench/ is outside the src/ lint
#include <filesystem>
#include <vector>

#include "common.hpp"
#include "obs/analysis.hpp"
#include "obs/reader.hpp"
#include "obs/streaming.hpp"

namespace {

struct Attribution {
  std::int64_t cross_bytes_job0 = 0;  ///< cross-job egress blame, job 0
  std::int64_t cross_bytes_total = 0;
  std::int64_t cross_ingress_bytes_job0 = 0;  ///< cross-job ingress blame, job 0
  std::int64_t cross_ingress_bytes_total = 0;
  long queue_pct = 0;   ///< egress-queue share of total barrier wait
  long fan_in_pct = 0;  ///< fan-in share of total barrier wait
};

Attribution attribute(const tls::exp::ExperimentConfig& base,
                      tls::core::PolicyKind policy, const std::string& dir,
                      const std::string& label) {
  using namespace tls;
  exp::ExperimentConfig c = exp::with_policy(base, policy);
  c.obs.trace_csv_path = dir + "/" + label + ".csv";
  exp::run_experiment(c);

  obs::StreamingAnalyzer analyzer;
  std::string error;
  Attribution out;
  if (!obs::for_each_trace_csv_event(
          c.obs.trace_csv_path,
          [&analyzer](const obs::TraceEvent& e) { analyzer.ingest(e); },
          nullptr, &error)) {
    std::fprintf(stderr, "bench_attribution: %s\n", error.c_str());
    return out;
  }
  obs::RunReport report = analyzer.finish();
  sim::Time wait = tls::sim::Time{0}, queue = tls::sim::Time{0},
            fan_in = tls::sim::Time{0};
  for (const obs::JobSummary& js : report.jobs) {
    wait += js.total_wait_ns;
    queue += js.egress_queue_ns;
    fan_in += js.fan_in_ns;
    out.cross_bytes_total += js.cross_job_blame_bytes;
    out.cross_ingress_bytes_total += js.cross_job_ingress_blame_bytes;
    if (js.job == 0) {
      out.cross_bytes_job0 = js.cross_job_blame_bytes;
      out.cross_ingress_bytes_job0 = js.cross_job_ingress_blame_bytes;
    }
  }
  if (wait > tls::sim::Time{0}) {
    out.queue_pct = static_cast<long>(queue * 100 / wait);
    out.fan_in_pct = static_cast<long>(fan_in * 100 / wait);
  }
  return out;
}

struct PlacementRow {
  int placement = 0;
  Attribution fifo;
  Attribution tls_one;
  bool isolated = false;
};

void write_policy_json(std::FILE* f, const char* name, const Attribution& a) {
  std::fprintf(f,
               "      \"%s\": {\"queue_pct\": %ld, \"fan_in_pct\": %ld, "
               "\"cross_egress_bytes\": %lld, \"cross_ingress_bytes\": %lld, "
               "\"job0_cross_egress_bytes\": %lld, "
               "\"job0_cross_ingress_bytes\": %lld}",
               name, a.queue_pct, a.fan_in_pct,
               static_cast<long long>(a.cross_bytes_total),
               static_cast<long long>(a.cross_ingress_bytes_total),
               static_cast<long long>(a.cross_bytes_job0),
               static_cast<long long>(a.cross_ingress_bytes_job0));
}

/// BENCH_attribution.json: the Timing header fields plus the per-placement
/// two-sided blame axis. Written by hand (not bench::Timing) because the
/// payload is structured per placement x policy x side.
void write_json(const std::vector<PlacementRow>& rows, long runs,
                double wall_s) {
  const char* dir = std::getenv("TLS_BENCH_JSON_DIR");
  std::string path = std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
                     "/BENCH_attribution.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;  // timing is best-effort, never fails a bench
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"attribution\",\n"
               "  \"wall_s\": %.6f,\n"
               "  \"runs\": %lld,\n"
               "  \"jobs\": %lld,\n"
               "  \"iters\": %lld,\n"
               "  \"seed\": %llu,\n"
               "  \"placements\": [\n",
               wall_s, static_cast<long long>(runs),
               static_cast<long long>(tls::bench::resolved_jobs()),
               static_cast<long long>(tls::bench::bench_iters()),
               static_cast<unsigned long long>(tls::bench::bench_seed()));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PlacementRow& r = rows[i];
    std::fprintf(f, "    {\n      \"placement\": %d,\n", r.placement);
    write_policy_json(f, "fifo", r.fifo);
    std::fprintf(f, ",\n");
    write_policy_json(f, "tls_one", r.tls_one);
    std::fprintf(f, ",\n      \"isolated\": %s\n    }%s\n",
                 r.isolated ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tls;
  bench::init(argc, argv);
  double t0 = now_s();
  bench::print_header(
      "Attribution sweep - two-sided blame matrix vs Table I placement "
      "(fig 5a axis)",
      "priority bands remove queueing-behind-other-jobs blame where "
      "placements share PS hosts; dispersed placements never blame");

  const std::string out_dir =
      (std::filesystem::temp_directory_path() / "tls_bench_attribution")
          .string();
  std::filesystem::create_directories(out_dir);

  exp::ExperimentConfig base;
  base.num_hosts = 6;
  base.workload.num_jobs = 3;
  base.workload.workers_per_job = 4;
  base.workload.global_step_target = 4L * bench::bench_iters();
  base.seed = bench::bench_seed();

  metrics::Table table({"placement", "queue% fifo", "fan-in% fifo",
                        "cross-job KiB fifo", "ingress KiB fifo",
                        "cross-job KiB tls-one", "ingress KiB tls-one",
                        "job0 cross KiB tls-one", "isolated?"});
  std::vector<PlacementRow> rows;
  long runs = 0;
  for (int index : {1, 2, 3, 4, 7, 8}) {
    exp::ExperimentConfig c = base;
    c.placement = cluster::table1(index, 3);
    std::string tag = "p" + std::to_string(index);
    Attribution fifo =
        attribute(c, core::PolicyKind::kFifo, out_dir, tag + "-fifo");
    Attribution one =
        attribute(c, core::PolicyKind::kTlsOne, out_dir, tag + "-tls-one");
    runs += 2;
    bool isolated = fifo.cross_bytes_total > 0 && one.cross_bytes_job0 == 0;
    rows.push_back(PlacementRow{index, fifo, one, isolated});
    table.add_row({"#" + std::to_string(index), std::to_string(fifo.queue_pct),
                   std::to_string(fifo.fan_in_pct),
                   std::to_string(fifo.cross_bytes_total / 1024),
                   std::to_string(fifo.cross_ingress_bytes_total / 1024),
                   std::to_string(one.cross_bytes_total / 1024),
                   std::to_string(one.cross_ingress_bytes_total / 1024),
                   std::to_string(one.cross_bytes_job0 / 1024),
                   fifo.cross_bytes_total == 0 ? "no contention"
                                               : (isolated ? "yes" : "NO")});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "\"isolated?\" = FIFO shows cross-job egress blame and TLs-One drives\n"
      "the prioritized job's cross-job blame to exactly 0 (tlsreport --diff\n"
      "prints the per-iteration certificate for any pair above; the ingress\n"
      "columns show the same contention measured past the receiver's port).\n");
  write_json(rows, runs, now_s() - t0);
  return 0;
}
