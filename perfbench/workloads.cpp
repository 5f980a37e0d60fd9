#include "workloads.hpp"

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cluster/placement.hpp"
#include "cluster/scheduler.hpp"
#include "net/units.hpp"
#include "obs/report_cli.hpp"

extern char** environ;

namespace perfbench {

namespace core = tls::core;
namespace exp = tls::exp;
namespace scenario = tls::scenario;
namespace sim = tls::sim;

namespace {

// Paper-scale sizing (see README.md): about 3.5 s per pass each on a
// 4-core x86 box, long enough that one pass is not dominated by noise.
constexpr std::int64_t kFifoIterations = 300;
// The report pipeline holds roughly 17 MB of RSS per iteration and writes
// a 5 MB-per-iteration trace CSV; 15 iterations stay near 0.35 GB in all
// and take about 3.5 s per pass.
constexpr std::int64_t kReportIterations = 15;
constexpr std::int64_t kTinyIterations = 3;

/// FNV-1a, folded over the canonical text of every simulated statistic.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= '\n';
    h *= 1099511628211ull;
  }
};

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  if (name == "paper_fifo") *out = Workload::kPaperFifo;
  else if (name == "paper_report") *out = Workload::kPaperReport;
  else if (name == "scenario_churn") *out = Workload::kScenarioChurn;
  else return false;
  return true;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kPaperFifo: return "paper_fifo";
    case Workload::kPaperReport: return "paper_report";
    case Workload::kScenarioChurn: return "scenario_churn";
  }
  return "?";
}

void scrub_environment() {
  std::vector<std::string> doomed = {"TLS_CACHE_DIR", "TLS_JOBS"};
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    std::string kv = *e;
    if (kv.rfind("TLS_BENCH_", 0) == 0) doomed.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& name : doomed) unsetenv(name.c_str());
}

bool parse_args(int argc, char** argv, Args* out, std::string* error) {
  for (int i = 1; i < argc; i += 2) {
    std::string key = argv[i];
    if (key == "--setup-only" || key == "--sparse-probe" || key == "--reference") {
      if (key == "--setup-only") out->setup_only = true;
      else if (key == "--sparse-probe") out->sparse_probe = true;
      else out->reference = true;
      --i;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + key;
      return false;
    }
    std::string value = argv[i + 1];
    if (key == "--workload") {
      out->workload = value;
    } else if (key == "--seed") {
      char* end = nullptr;
      out->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || value.empty()) {
        *error = "bad --seed '" + value + "'";
        return false;
      }
    } else if (key == "--scale") {
      if (value == "paper") out->scale = Scale::kPaper;
      else if (value == "tiny") out->scale = Scale::kTiny;
      else {
        *error = "bad --scale '" + value + "' (paper|tiny)";
        return false;
      }
    } else if (key == "--seconds") {
      char* end = nullptr;
      out->seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(out->seconds > 0)) {
        *error = "bad --seconds '" + value + "'";
        return false;
      }
    } else if (key == "--spans") {
      out->spans_path = value;
    } else {
      *error = "unknown flag " + key;
      return false;
    }
  }
  Workload w;
  if (!parse_workload(out->workload, &w)) {
    *error = "--workload must be paper_fifo, paper_report or scenario_churn";
    return false;
  }
  if (out->sparse_probe && w != Workload::kScenarioChurn) {
    *error = "--sparse-probe needs --workload scenario_churn";
    return false;
  }
  return true;
}

ScratchFile::ScratchFile(const std::string& name) {
  fd_ = memfd_create(name.c_str(), 0);
  if (fd_ < 0) {
    throw std::runtime_error("memfd_create(" + name + ") failed: " +
                             std::strerror(errno));
  }
  path_ = "/proc/self/fd/" + std::to_string(fd_);
  // The path form is what the product's writers open; make sure it works.
  if (!std::ofstream(path_, std::ios::binary)) {
    close(fd_);
    throw std::runtime_error("cannot open memory file " + path_);
  }
}

ScratchFile::~ScratchFile() { close(fd_); }

std::string ScratchFile::read() const {
  std::ifstream in(path_, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::uint64_t ScratchFile::size() const {
  struct stat st {};
  if (stat(path_.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

ReportFiles::ReportFiles()
    : report_text("report.txt"),
      report_json("report.json"),
      trace_csv("trace.csv"),
      offline_json("offline.json") {}

exp::ExperimentConfig paper_config(core::PolicyKind policy,
                                   std::int64_t iterations,
                                   std::uint64_t seed, Scale scale) {
  exp::ExperimentConfig c;  // defaults are the paper testbed
  if (scale == Scale::kTiny) {
    c.num_hosts = 5;
    c.workload.num_jobs = 4;
    c.workload.workers_per_job = 3;
    c.placement = tls::cluster::table1(1, c.workload.num_jobs);
  }
  c.controller.policy = policy;
  c.workload.global_step_target = iterations * c.workload.workers_per_job;
  c.seed = seed;
  return c;
}

scenario::Config scenario_config(std::uint64_t seed, Scale scale) {
  scenario::Config c;
  c.controller.policy = core::PolicyKind::kTlsRR;
  c.controller.rotation_interval = 20 * sim::kSecond;
  c.admission = tls::cluster::AdmissionPolicy::kShareBand;
  c.seed = seed;
  scenario::TraceConfig& t = c.trace;
  t.process = scenario::ArrivalProcess::kPoisson;
  t.seed = seed;
  t.local_batch_size = 4;
  // Dense small jobs on few hosts: more PSes per host than the 6-band
  // budget, and an eviction window well inside the ~80 s median JCT so
  // evicted jobs really leave mid-flight.
  t.evict_fraction = 0.2;
  t.evict_min_s = 5;
  t.evict_max_s = 40;
  t.min_iterations = 40;
  t.max_iterations = 160;
  if (scale == Scale::kTiny) {
    c.num_hosts = 4;
    t.num_jobs = 40;
    t.mean_interarrival_s = 0.5;
    t.min_workers = 2;
    t.max_workers = 3;
    t.min_iterations = 5;
    t.max_iterations = 20;
    t.evict_min_s = 1;
    t.evict_max_s = 5;
  } else {
    c.num_hosts = 6;
    t.num_jobs = 300;
    t.mean_interarrival_s = 2.0;
    t.min_workers = 2;
    t.max_workers = 4;
  }
  return c;
}

scenario::Config sparse_scenario_config(std::uint64_t seed, Scale scale) {
  scenario::Config c;
  c.num_hosts = 12;
  c.cores_per_host = 6;
  c.scheduler = tls::cluster::SchedulerPolicy::kPsAgnostic;
  c.admission = tls::cluster::AdmissionPolicy::kShareBand;
  c.fabric.link_rate = tls::net::gbps(2.5);
  c.controller.policy = core::PolicyKind::kTlsRR;
  c.controller.rotation_interval = 20 * sim::kSecond;
  c.seed = seed;
  scenario::TraceConfig& t = c.trace;
  t.process = scenario::ArrivalProcess::kPoisson;
  t.seed = seed;
  t.num_jobs = 120;
  t.mean_interarrival_s = 36;
  t.min_workers = 4;
  t.max_workers = 8;
  t.min_iterations = 40;
  t.max_iterations = 160;
  t.local_batch_size = 1;
  t.evict_fraction = 0.1;
  t.evict_min_s = 30;
  t.evict_max_s = 120;
  if (scale == Scale::kTiny) {
    c.num_hosts = 4;
    t.num_jobs = 6;
    t.min_workers = 2;
    t.max_workers = 3;
    t.min_iterations = 5;
    t.max_iterations = 20;
  }
  return c;
}

Inputs make_inputs(Workload workload, std::uint64_t seed, Scale scale,
                   bool sparse_probe) {
  Inputs in;
  in.workload = workload;
  in.scale = scale;
  in.seed = seed;
  in.sparse_probe = sparse_probe;
  switch (workload) {
    case Workload::kPaperFifo:
      in.iterations = scale == Scale::kTiny ? kTinyIterations : kFifoIterations;
      in.experiment =
          paper_config(core::PolicyKind::kFifo, in.iterations, seed, scale);
      break;
    case Workload::kPaperReport: {
      in.iterations =
          scale == Scale::kTiny ? kTinyIterations : kReportIterations;
      in.experiment =
          paper_config(core::PolicyKind::kTlsOne, in.iterations, seed, scale);
      in.files = std::make_unique<ReportFiles>();
      exp::ObsOptions& o = in.experiment.obs;
      o.report_path = in.files->report_text.path();
      o.report_json_path = in.files->report_json.path();
      o.trace_csv_path = in.files->trace_csv.path();
      break;
    }
    case Workload::kScenarioChurn:
      in.scenario = sparse_probe ? sparse_scenario_config(seed, scale)
                                 : scenario_config(seed, scale);
      in.scenario.replay = scenario::generate_trace(in.scenario.trace);
      break;
  }
  return in;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += fmt("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

std::string BenchmarkParams::json() const {
  std::ostringstream o;
  o << "{\"workload\": " << json_quote(workload) << ", \"seed\": " << seed
    << ", \"scale\": " << json_quote(scale) << ", \"hosts\": " << hosts
    << ", \"jobs\": " << jobs
    << ", \"workers_per_job\": " << json_quote(workers_per_job)
    << ", \"iterations\": " << json_quote(iterations)
    << ", \"placement\": " << json_quote(placement)
    << ", \"policy\": " << json_quote(policy)
    << ", \"data_plane\": " << json_quote(data_plane)
    << ", \"admission\": " << json_quote(admission)
    << ", \"arrivals\": " << json_quote(arrivals)
    << ", \"eviction\": " << json_quote(eviction)
    << ", \"obs\": " << json_quote(obs) << ", \"threads\": 1"
    << ", \"result_cache\": false}";
  return o.str();
}

BenchmarkParams params_of(const Inputs& in) {
  BenchmarkParams p;
  p.workload = to_string(in.workload);
  p.seed = in.seed;
  p.scale = in.scale == Scale::kTiny ? "tiny" : "paper";
  if (in.workload == Workload::kScenarioChurn) {
    const scenario::Config& c = in.scenario;
    p.hosts = c.num_hosts;
    p.jobs = static_cast<int>(c.replay.jobs.size());
    p.workers_per_job = fmt("%d-%d", c.trace.min_workers, c.trace.max_workers);
    p.iterations = fmt("%" PRId64 "-%" PRId64, c.trace.min_iterations,
                       c.trace.max_iterations);
    p.placement = fmt("online %s scheduler", tls::cluster::to_string(c.scheduler));
    p.policy = fmt("%s (rotation %.0f s)", core::to_string(c.controller.policy),
                   sim::to_seconds(c.controller.rotation_interval));
    p.data_plane = core::to_string(c.controller.data_plane);
    p.admission = tls::cluster::to_string(c.admission);
    p.arrivals = fmt("poisson, mean %.2f s", c.trace.mean_interarrival_s);
    p.eviction = fmt("%.0f%% in [%.0f, %.0f] s", 100 * c.trace.evict_fraction,
                     c.trace.evict_min_s, c.trace.evict_max_s);
    p.obs = "off";
  } else {
    const exp::ExperimentConfig& c = in.experiment;
    p.hosts = c.num_hosts;
    p.jobs = c.workload.num_jobs;
    p.workers_per_job = std::to_string(c.workload.workers_per_job);
    p.iterations = std::to_string(in.iterations);
    p.placement = "table1 #1 (all PSes on host 0)";
    p.policy = core::to_string(c.controller.policy);
    p.data_plane = c.controller.policy == core::PolicyKind::kFifo
                       ? "pfifo"
                       : core::to_string(c.controller.data_plane);
    p.admission = "static";
    p.arrivals = "grid search, 0.1 s stagger";
    p.eviction = "none";
    p.obs = in.workload == Workload::kPaperReport
                ? "--report --report-json --trace-csv, then tlsreport"
                : "off";
  }
  return p;
}

PassOutput run_pass(const Inputs& in) {
  PassOutput out;
  switch (in.workload) {
    case Workload::kPaperFifo:
      out.experiment = exp::run_experiment(in.experiment);
      break;
    case Workload::kPaperReport: {
      out.experiment = exp::run_experiment(in.experiment);
      const std::string csv = in.files->trace_csv.path();
      const std::string json = in.files->offline_json.path();
      const char* argv[] = {"tlsreport", csv.c_str(), "--json", json.c_str()};
      std::ostringstream text, err;
      out.report_cli_rc = tls::obs::run_report_cli(4, argv, text, err);
      out.offline_text = text.str();
      out.report_cli_err = err.str();
      break;
    }
    case Workload::kScenarioChurn:
      out.scenario = scenario::run_scenario(in.scenario);
      break;
  }
  return out;
}

std::int64_t job_iterations(const Inputs& in, const PassOutput& out) {
  std::int64_t total = 0;
  if (in.workload == Workload::kScenarioChurn) {
    for (const scenario::JobOutcome& j : out.scenario.jobs) {
      total += j.iterations_done;
    }
  } else {
    for (const exp::JobResult& j : out.experiment.jobs) total += j.iterations;
  }
  return total;
}

std::string check_pass(const Inputs& in, const PassOutput& out) {
  if (in.workload == Workload::kScenarioChurn) {
    const scenario::Result& r = out.scenario;
    const std::size_t n = in.scenario.replay.jobs.size();
    if (r.completed + r.evicted + r.rejected + r.unfinished != n ||
        r.jobs.size() != n) {
      return fmt("job accounting: %zu completed + %zu evicted + %zu rejected "
                 "+ %zu unfinished != %zu trace jobs",
                 r.completed, r.evicted, r.rejected, r.unfinished, n);
    }
    for (const scenario::JobOutcome& j : r.jobs) {
      if (j.status == scenario::JobStatus::kCompleted &&
          j.iterations_done != j.iterations_target) {
        return fmt("job %d completed at %" PRId64 " of %" PRId64
                   " iterations",
                   j.job_id, j.iterations_done, j.iterations_target);
      }
    }
    // The probe's light churn is its sizing, not a fault: it is checked
    // for accounting only.
    if (in.sparse_probe) return "";
    if (r.evicted == 0) return "no job was evicted mid-flight";
    if (r.rotations == 0) return "no TLs-RR rotation happened";
    if (r.peak_ps_colocation <= in.scenario.controller.max_bands) {
      return fmt("peak PS colocation %d does not exceed the %d-band budget",
                 r.peak_ps_colocation, in.scenario.controller.max_bands);
    }
    return "";
  }
  const exp::ExperimentResult& r = out.experiment;
  if (static_cast<int>(r.jobs.size()) != in.experiment.workload.num_jobs) {
    return fmt("%zu job results for %d jobs", r.jobs.size(),
               in.experiment.workload.num_jobs);
  }
  if (!r.all_finished) return "not every job finished";
  for (const exp::JobResult& j : r.jobs) {
    if (!j.finished || j.iterations != in.iterations) {
      return fmt("job %d reached %" PRId64 " of %" PRId64 " iterations",
                 j.job_id, j.iterations, in.iterations);
    }
  }
  if (in.workload == Workload::kPaperReport) {
    if (out.report_cli_rc != 0) {
      return "offline tlsreport failed: " + out.report_cli_err;
    }
    if (in.files->report_text.size() == 0 ||
        out.offline_text != in.files->report_text.read()) {
      return "offline text report differs from the in-process one";
    }
    const std::string json = in.files->report_json.read();
    if (json.empty() || in.files->offline_json.read() != json) {
      return "offline JSON report differs from the in-process one";
    }
  }
  return "";
}

std::string digest(const Inputs& in, const PassOutput& out,
                   std::string* summary) {
  Fnv f;
  if (in.workload == Workload::kScenarioChurn) {
    const scenario::Result& r = out.scenario;
    f.add(fmt("%" PRIu64 " %" PRIu64 " %" PRIu64 " %a %d %d %a", r.sim_events,
              r.tc_commands, r.rotations, r.horizon_s, r.peak_active_jobs,
              r.peak_ps_colocation, r.cluster_cpu_util));
    for (const scenario::JobOutcome& j : r.jobs) {
      f.add(fmt("%d %s %" PRId64 " %a %a %a %a %d", j.job_id,
                scenario::to_string(j.status), j.iterations_done, j.admit_s,
                j.finish_s, j.queue_wait_s, j.jct_s, j.band_at_admit));
    }
    *summary = fmt("sim_events=%" PRIu64 " tc_commands=%" PRIu64
                   " rotations=%" PRIu64
                   " completed=%zu evicted=%zu rejected=%zu unfinished=%zu "
                   "peak_ps_colocation=%d mean_jct_s=%.6f",
                   r.sim_events, r.tc_commands, r.rotations, r.completed,
                   r.evicted, r.rejected, r.unfinished, r.peak_ps_colocation,
                   r.jct.mean);
  } else {
    const exp::ExperimentResult& r = out.experiment;
    f.add(fmt("%" PRIu64 " %" PRIu64 " %" PRIu64 " %a %a %a %a %a", r.sim_events,
              r.tc_commands, r.rotations, r.sim_horizon_s, r.cpu_util_ps_hosts,
              r.cpu_util_worker_hosts, r.nic_in_util, r.nic_out_util));
    for (const exp::JobResult& j : r.jobs) {
      f.add(fmt("%d %d %" PRId64 " %a", j.job_id, j.finished ? 1 : 0,
                j.iterations, j.jct_s));
      std::string waits;
      for (std::size_t i = 0; i < j.barrier_mean_waits_s.size(); ++i) {
        waits += fmt("%a %a ", j.barrier_mean_waits_s[i],
                     j.barrier_variances_s2[i]);
      }
      f.add(waits);
    }
    if (in.workload == Workload::kPaperReport) {
      f.add(in.files->report_json.read());
    }
    *summary = fmt("sim_events=%" PRIu64 " tc_commands=%" PRIu64
                   " rotations=%" PRIu64
                   " avg_jct_s=%.6f barrier_mean_s=%.9f",
                   r.sim_events, r.tc_commands, r.rotations, r.avg_jct_s,
                   r.barrier_mean_summary.mean);
  }
  return fmt("%016" PRIx64, f.h);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
