#include "runtime/cli.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <ostream>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>

#include "exp/experiment.hpp"
#include "exp/export.hpp"
#include "metrics/report.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "runtime/runner.hpp"
#include "runtime/scenario_runner.hpp"
#include "scenario/export.hpp"
#include "simcore/parse.hpp"

namespace tls::runtime {

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  std::string value = fallback;
  for (const auto& [k, v] : flags) {
    if (k == key) value = v;
  }
  return value;
}

bool CliArgs::has(const std::string& key) const {
  for (const auto& [k, v] : flags) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

namespace {

/// Flags that are on when present and take no value: "--csv=no" or
/// "--background 0" would otherwise read as on.
constexpr std::string_view kSwitches[] = {"csv", "background", "progress",
                                          "scenario-compare"};

}  // namespace

bool parse_args(const std::vector<std::string>& raw, CliArgs* out,
                std::string* error) {
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string& a = raw[i];
    if (a.rfind("--", 0) != 0) {
      out->positional.push_back(a);
      continue;
    }
    std::string key = a.substr(2);
    if (key.empty()) {
      *error = "empty flag name";
      return false;
    }
    std::string value;
    auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < raw.size() && raw[i + 1].rfind("--", 0) != 0) {
      // "--key value" when the next token is not itself a flag.
      value = raw[++i];
    } else {
      out->flags.emplace_back(key, "true");  // a bare switch
      continue;
    }
    if (std::find(std::begin(kSwitches), std::end(kSwitches), key) !=
        std::end(kSwitches)) {
      *error = "--" + key + " is a switch and takes no value, got '" + value +
               "'";
      return false;
    }
    out->flags.emplace_back(std::move(key), std::move(value));
  }
  return true;
}

namespace {

constexpr const char* kUsage = R"(tlsim - TensorLights cluster simulator

usage: tlsim <command> [flags]

commands:
  run              one experiment, full report
  compare          FIFO vs TLs-One vs TLs-RR on one configuration
  sweep-placement  Table I placements under every policy
  sweep-batch      local batch sizes {1,2,4,8,16} under every policy
  scenario         trace-driven dynamic cluster: jobs arrive/depart over
                   hours of simulated time (see scenario flags below)
  help             this text

Every command rejects a flag it does not read and lists the ones it does.

flags (defaults = the paper's testbed):
  --hosts N (21) --jobs N (21) --workers N (20) --ps N (1)
  --batch N (4) --iters N (60) --placement IDX (1) --seed N (1)
  --policy fifo|tls-one|tls-rr (tls-rr)
  --strategy arrival|random|smallest (arrival)
  --bands N (6) --interval-s X (10) --link-gbps X (10)
  --background --csv
  run also reads --replicas N (1) and --export-prefix PATH; compare and
  the sweeps run every policy and take no --policy, sweep-placement sets
  --placement itself and sweep-batch sets --batch

execution flags (host-side; results are byte-identical at any thread count):
  --threads N      worker threads for independent runs
                   (0 = hardware concurrency; 1 = serial)
  --progress       per-run progress/ETA lines on stderr

observability flags (artifacts never change results; multi-run commands
derive per-run paths, e.g. trace.json -> trace.run-label.json):
  --trace PATH         Chrome trace-event JSON (Perfetto/chrome://tracing)
  --trace-csv PATH     same events in compact CSV form
  --trace-filter CATS  comma list of chunk,qdisc,htb,rotation,barrier,
                       straggler,sample,flow,ingress,compute; or
                       all (default) / none
  --trace-sample SPEC  capture sampling, comma list of cat=N keeping one
                       event in N (e.g. qdisc=16,htb=8); attribution
                       categories are always kept exact
  --metrics PATH       long-format metrics timeseries CSV
  --report PATH        straggler-attribution report (critical-path
                       decomposition + contention blame; tlsreport text)
  --report-csv PATH    same report as tidy long CSV
  --report-json PATH   same report as tlsreport-v2 JSON
  --report-html PATH   same report as a self-contained HTML dashboard

scenario flags (shared flags that apply: --hosts (12 here), --policy,
--strategy, --bands, --interval-s (20 here), --link-gbps, --seed,
--threads, --csv):
  --cores N (6)                  CPU cores per host
  --metrics PATH                 occupancy timeseries CSV
  --scenario-jobs N (100)        trace length
  --scenario-arrivals poisson|pareto (poisson)
  --scenario-mean-s X (30)       Poisson mean interarrival
  --scenario-pareto-alpha X (1.5) --scenario-pareto-min-s X (2)
  --scenario-pareto-max-s X (600) bounded-Pareto interarrival shape/bounds
  --scenario-models LIST         comma list of zoo models, or mix = all
                                 (default resnet32_cifar10)
  --scenario-workers-min N (2) --scenario-workers-max N (8)
  --scenario-iters-min N (20) --scenario-iters-max N (80)
  --scenario-batch N (4)         local batch size
  --scenario-evict-frac X (0)    fraction of jobs evicted mid-flight
  --scenario-evict-min-s X (30) --scenario-evict-max-s X (300)
  --scenario-trace-seed N (1)    workload seed (fixed across --policy)
  --scenario-admission share|queue|reject (share)
  --scenario-band-limit N (-1)   PS jobs/host before admission kicks in
                                 (-1 = follow --bands, 0 = unlimited)
  --scenario-time-limit-s X (14400) --scenario-sample-s X (10)
  --scenario-compare             FIFO vs TLs-One vs TLs-RR, same trace
  --scenario-trace PATH          replay a trace CSV instead of generating
  --scenario-trace-out PATH      write the trace CSV actually used
  --scenario-out PATH            scenario-v1 JSON result
  --scenario-csv PATH            per-job outcome CSV
)";

/// The flag reader every command shares. An absent flag yields its
/// fallback; a present one, even an empty `--flag=`, must parse whole
/// (simcore/parse.hpp) and lie in its range. The first value that does not
/// is kept as the error and later reads yield their fallbacks, so
/// build_config and its kin read every flag and then check ok() once.
class FlagReader {
 public:
  explicit FlagReader(const CliArgs& args) : args_(args) {}

  long integer(const std::string& key, long fallback, long lo, long hi) {
    if (!args_.has(key)) return fallback;
    std::string v = args_.get(key);
    long parsed = 0;
    if (!sim::parse_int(v, &parsed, lo, hi)) return bad(key, v, fallback);
    return parsed;
  }

  /// Reals are also capped at 1e9, so any time in seconds fits sim::Time.
  double real(const std::string& key, double fallback, double lo) {
    if (!args_.has(key)) return fallback;
    std::string v = args_.get(key);
    double parsed = 0;
    if (!sim::parse_real(v, &parsed, lo, 1e9)) return bad(key, v, fallback);
    return parsed;
  }

  /// One of `choices`, by name.
  template <typename T>
  T choice(const std::string& key, const std::string& fallback,
           std::initializer_list<std::pair<std::string_view, T>> choices) {
    std::string v = args_.get(key, fallback);
    std::string names;
    for (const auto& [name, value] : choices) {
      if (name == v) return value;
      names += (names.empty() ? "" : "|") + std::string(name);
    }
    if (error_.empty()) {
      error_ = "bad --" + key + " '" + v + "' (" + names + ")";
    }
    return choices.begin()->second;
  }

  /// False, with the first failure in `*error`, once any read failed.
  bool ok(std::string* error) const {
    if (error_.empty()) return true;
    *error = error_;
    return false;
  }

 private:
  template <typename T>
  T bad(const std::string& key, const std::string& value, T fallback) {
    if (error_.empty()) error_ = "bad value for --" + key + ": '" + value + "'";
    return fallback;
  }

  const CliArgs& args_;
  std::string error_;
};

/// The cluster and controller flags every command parses, into either
/// configuration (exp::ExperimentConfig or scenario::Config). Only the
/// defaults of --hosts and --interval-s differ between the two.
template <typename Config>
void read_cluster_flags(FlagReader& flags, long default_hosts,
                        double default_interval_s, Config* config) {
  config->num_hosts =
      static_cast<int>(flags.integer("hosts", default_hosts, 2, 4096));
  config->seed = static_cast<std::uint64_t>(
      flags.integer("seed", 1, 0, INT64_MAX / 2));
  config->fabric.link_rate = net::gbps(flags.real("link-gbps", 10.0, 1e-3));
  core::ControllerConfig& c = config->controller;
  c.max_bands = static_cast<int>(flags.integer("bands", 6, 1, 15));
  c.rotation_interval =
      sim::from_seconds(flags.real("interval-s", default_interval_s, 1e-3));
  // The prio data plane allows more bands than htb's 8 priority levels.
  if (c.max_bands > 8) c.data_plane = core::DataPlane::kPrio;
  using core::PolicyKind;
  c.policy = flags.choice<PolicyKind>("policy", "tls-rr",
                                      {{"fifo", PolicyKind::kFifo},
                                       {"tls-one", PolicyKind::kTlsOne},
                                       {"tls-rr", PolicyKind::kTlsRR}});
  using core::AssignStrategy;
  c.strategy = flags.choice<AssignStrategy>(
      "strategy", "arrival",
      {{"arrival", AssignStrategy::kArrivalOrder},
       {"random", AssignStrategy::kRandom},
       {"smallest", AssignStrategy::kSmallestModelFirst}});
}

/// Builds the experiment configuration from flags; returns false with a
/// message on any invalid value.
bool build_config(const CliArgs& args, exp::ExperimentConfig* config,
                  std::string* error) {
  FlagReader flags(args);
  read_cluster_flags(flags, 21, 10.0, config);
  long jobs = flags.integer("jobs", 21, 1, 4096);
  long workers = flags.integer("workers", 20, 1, 4095);
  long placement = flags.integer("placement", 1, 1, 8);
  workload::GridSearchConfig& w = config->workload;
  w.num_jobs = static_cast<int>(jobs);
  w.workers_per_job = static_cast<int>(workers);
  w.ps_per_job = static_cast<int>(flags.integer("ps", 1, 1, 64));
  w.local_batch_size = static_cast<int>(flags.integer("batch", 4, 1, 65536));
  w.global_step_target = workers * flags.integer("iters", 60, 1, 1000000);
  config->placement =
      cluster::table1(static_cast<int>(placement), static_cast<int>(jobs));
  config->background = args.has("background");
  if (!flags.ok(error)) return false;
  if (workers > config->num_hosts - 1) {
    *error = "--workers must be <= --hosts - 1";
    return false;
  }

  config->obs.trace_path = args.get("trace");
  config->obs.trace_csv_path = args.get("trace-csv");
  config->obs.metrics_path = args.get("metrics");
  config->obs.report_path = args.get("report");
  config->obs.report_csv_path = args.get("report-csv");
  config->obs.report_json_path = args.get("report-json");
  config->obs.report_html_path = args.get("report-html");
  // An explicitly empty --trace-filter= or --trace-sample= is malformed,
  // not absent.
  if (args.has("trace-filter") &&
      !obs::parse_categories(args.get("trace-filter"),
                             &config->obs.trace_categories, error)) {
    return false;
  }
  if (args.has("trace-sample")) {
    // Validate the spec here so a typo fails at flag parse, not mid-run;
    // the parsed rates are re-derived inside the run's exp::Session.
    std::string sample = args.get("trace-sample");
    std::uint32_t every[obs::kNumCats];
    for (int i = 0; i < obs::kNumCats; ++i) every[i] = 1;
    if (!obs::parse_sampling(sample, every, error)) {
      *error = "bad value for --trace-sample: " + *error;
      return false;
    }
    config->obs.trace_sample = sample;
  }
  return true;
}

/// Host-execution options (threads / progress) from flags; false with a
/// message on a malformed value.
bool build_run_options(const CliArgs& args, RunOptions* options,
                       std::string* error) {
  FlagReader flags(args);
  options->jobs = static_cast<int>(flags.integer("threads", 0, 0, 4096));
  options->progress = args.has("progress");
  return flags.ok(error);
}

void emit(const metrics::Table& table, bool csv, std::ostream& out) {
  out << (csv ? table.csv() : table.str()) << "\n";
}

void add_result_row(metrics::Table* table, const exp::ExperimentResult& r,
                    double norm) {
  table->add_row({r.policy_name, metrics::fmt(r.avg_jct_s),
                  metrics::fmt(r.min_jct_s), metrics::fmt(r.max_jct_s),
                  metrics::fmt(norm, 3),
                  metrics::fmt(r.barrier_mean_summary.mean * 1e3, 1),
                  metrics::fmt(r.barrier_variance_summary.mean * 1e6, 0),
                  std::to_string(r.tc_commands)});
}

int cmd_run(const CliArgs& args, const exp::ExperimentConfig& config,
            const RunOptions& options, std::ostream& out,
            std::ostream& err) {
  FlagReader flags(args);
  long replicas = flags.integer("replicas", 1, 1, 10000);
  std::string error;
  if (!flags.ok(&error)) {
    err << "tlsim: " << error << "\n";
    return 2;
  }
  RunReport report = run_plan(
      RunPlan::replicated(config, static_cast<int>(replicas)),
      options);
  std::vector<exp::ExperimentResult>& runs = report.results;
  metrics::Table table({"policy", "avg JCT (s)", "min", "max", "norm",
                        "barrier wait (ms)", "wait var (ms^2)", "tc cmds"});
  for (const auto& r : runs) add_result_row(&table, r, 1.0);
  emit(table, args.has("csv"), out);
  if (replicas > 1) {
    metrics::Summary s = exp::jct_across(runs);
    out << "avg JCT across " << replicas << " seeds: " << metrics::fmt(s.mean)
        << " +/- " << metrics::fmt(s.stddev) << " s\n";
  }
  // --export-prefix PATH writes PATH.jobs.csv / PATH.barriers.csv /
  // PATH.json for the first replica.
  std::string prefix = args.get("export-prefix");
  if (!prefix.empty()) {
    const exp::ExperimentResult& first = runs.front();
    if (!obs::write_file(prefix + ".jobs.csv", exp::jobs_csv(first), &error) ||
        !obs::write_file(prefix + ".barriers.csv", exp::barriers_csv(first),
                         &error) ||
        !obs::write_file(prefix + ".json", exp::to_json(first), &error)) {
      err << "tlsim: export failed: " << error << "\n";
      return 1;
    }
    out << "exported " << prefix << ".{jobs.csv,barriers.csv,json}\n";
  }
  return 0;
}

int cmd_compare(const CliArgs& args, const exp::ExperimentConfig& config,
                const RunOptions& options, std::ostream& out) {
  metrics::Table table({"policy", "avg JCT (s)", "min", "max", "norm",
                        "barrier wait (ms)", "wait var (ms^2)", "tc cmds"});
  // Plan order is FIFO, TLs-One, TLs-RR; FIFO (index 0) is the baseline.
  RunReport report =
      run_plan(RunPlan::policy_comparison(config), options);
  const exp::ExperimentResult& fifo = report.results.front();
  for (const exp::ExperimentResult& r : report.results) {
    add_result_row(&table, r, exp::avg_normalized_jct(r, fifo));
  }
  emit(table, args.has("csv"), out);
  return 0;
}

int cmd_sweep_placement(const CliArgs& args, const exp::ExperimentConfig& config,
                        const RunOptions& options,
                        std::ostream& out) {
  metrics::Table table({"placement", "FIFO avg JCT (s)", "TLs-One norm",
                        "TLs-RR norm"});
  const std::vector<int> indices = {1, 2, 3, 4, 5, 6, 7, 8};
  RunReport report = run_plan(
      RunPlan::placement_sweep(config, indices,
                                        RunPlan::default_policies()),
      options);
  // Row-major: results[3*i + {0,1,2}] = placement indices[i] under
  // {FIFO, TLs-One, TLs-RR}.
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const exp::ExperimentResult& fifo = report.results[3 * i];
    const exp::ExperimentResult& one = report.results[3 * i + 1];
    const exp::ExperimentResult& rr = report.results[3 * i + 2];
    table.add_row({"#" + std::to_string(indices[i]),
                   metrics::fmt(fifo.avg_jct_s),
                   metrics::fmt(exp::avg_normalized_jct(one, fifo), 3),
                   metrics::fmt(exp::avg_normalized_jct(rr, fifo), 3)});
  }
  emit(table, args.has("csv"), out);
  return 0;
}

int cmd_sweep_batch(const CliArgs& args, const exp::ExperimentConfig& config,
                    const RunOptions& options, std::ostream& out) {
  metrics::Table table({"batch", "FIFO avg JCT (s)", "TLs-One norm",
                        "TLs-RR norm"});
  const std::vector<int> batches = {1, 2, 4, 8, 16};
  RunReport report = run_plan(
      RunPlan::batch_sweep(config, batches,
                                    RunPlan::default_policies()),
      options);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const exp::ExperimentResult& fifo = report.results[3 * i];
    const exp::ExperimentResult& one = report.results[3 * i + 1];
    const exp::ExperimentResult& rr = report.results[3 * i + 2];
    table.add_row({std::to_string(batches[i]), metrics::fmt(fifo.avg_jct_s),
                   metrics::fmt(exp::avg_normalized_jct(one, fifo), 3),
                   metrics::fmt(exp::avg_normalized_jct(rr, fifo), 3)});
  }
  emit(table, args.has("csv"), out);
  return 0;
}

// ---------------------------------------------------------------------
// tlsim scenario — the dynamic-cluster workload engine front end.

bool build_scenario_config(const CliArgs& args, scenario::Config* config,
                           std::string* error) {
  FlagReader flags(args);
  read_cluster_flags(flags, 12, 20.0, config);
  config->cores_per_host = static_cast<int>(flags.integer("cores", 6, 1, 1024));
  config->ps_band_limit =
      static_cast<int>(flags.integer("scenario-band-limit", -1, -1, 4096));
  config->time_limit =
      sim::from_seconds(flags.real("scenario-time-limit-s", 14400.0, 1.0));
  config->sample_period =
      sim::from_seconds(flags.real("scenario-sample-s", 10.0, 0.0));
  config->admission = flags.choice<cluster::AdmissionPolicy>(
      "scenario-admission", "share",
      {{"share", cluster::AdmissionPolicy::kShareBand},
       {"queue", cluster::AdmissionPolicy::kQueue},
       {"reject", cluster::AdmissionPolicy::kReject}});
  config->metrics_path = args.get("metrics");

  scenario::TraceConfig& t = config->trace;
  t.process = flags.choice<scenario::ArrivalProcess>(
      "scenario-arrivals", "poisson",
      {{"poisson", scenario::ArrivalProcess::kPoisson},
       {"pareto", scenario::ArrivalProcess::kParetoBounded}});
  t.num_jobs = static_cast<int>(flags.integer("scenario-jobs", 100, 1, 100000));
  t.mean_interarrival_s = flags.real("scenario-mean-s", 30.0, 1e-6);
  t.pareto_alpha = flags.real("scenario-pareto-alpha", 1.5, 1e-6);
  t.pareto_min_s = flags.real("scenario-pareto-min-s", 2.0, 1e-6);
  t.pareto_max_s = flags.real("scenario-pareto-max-s", 600.0, 1e-6);
  t.min_workers =
      static_cast<int>(flags.integer("scenario-workers-min", 2, 1, 4095));
  t.max_workers =
      static_cast<int>(flags.integer("scenario-workers-max", 8, 1, 4095));
  t.min_iterations = flags.integer("scenario-iters-min", 20, 1, 1000000);
  t.max_iterations = flags.integer("scenario-iters-max", 80, 1, 1000000);
  t.local_batch_size =
      static_cast<int>(flags.integer("scenario-batch", 4, 1, 65536));
  t.evict_fraction = flags.real("scenario-evict-frac", 0.0, 0.0);
  t.evict_min_s = flags.real("scenario-evict-min-s", 30.0, 1e-6);
  t.evict_max_s = flags.real("scenario-evict-max-s", 300.0, 1e-6);
  t.seed = static_cast<std::uint64_t>(
      flags.integer("scenario-trace-seed", 1, 0, INT64_MAX / 2));
  if (!flags.ok(error)) return false;

  std::string models = args.get("scenario-models");
  if (!models.empty() && !scenario::parse_model_mix(models, &t.models, error)) {
    *error = "bad --scenario-models: " + *error;
    return false;
  }
  if (t.min_workers > t.max_workers) {
    *error = "--scenario-workers-min must be <= --scenario-workers-max";
    return false;
  }
  if (t.min_iterations > t.max_iterations) {
    *error = "--scenario-iters-min must be <= --scenario-iters-max";
    return false;
  }
  if (t.evict_fraction > 1.0) {
    *error = "--scenario-evict-frac must be <= 1";
    return false;
  }

  std::string trace_path = args.get("scenario-trace");
  if (!trace_path.empty()) {
    std::ifstream in(trace_path, std::ios::binary);
    if (!in) {
      *error = "cannot open --scenario-trace file: " + trace_path;
      return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!scenario::parse_trace_csv(buffer.str(), &config->replay, error)) {
      return false;
    }
  }
  return true;
}

void add_scenario_row(metrics::Table* table, const std::string& label,
                      const scenario::Result& r) {
  table->add_row({label, std::to_string(r.jobs.size()),
                  std::to_string(r.completed), std::to_string(r.evicted),
                  std::to_string(r.rejected), std::to_string(r.unfinished),
                  metrics::fmt(r.jct.mean), metrics::fmt(r.jct.p99),
                  metrics::fmt(r.queue_wait.mean),
                  std::to_string(r.peak_ps_colocation),
                  metrics::fmt(r.cluster_cpu_util, 3),
                  std::to_string(r.rotations),
                  std::to_string(r.tc_commands)});
}

int cmd_scenario(const CliArgs& args, const RunOptions& options,
                 std::ostream& out, std::ostream& err) {
  scenario::Config config;
  std::string error;
  if (!build_scenario_config(args, &config, &error)) {
    err << "tlsim: " << error << "\n";
    return 2;
  }

  std::string trace_out = args.get("scenario-trace-out");
  if (!trace_out.empty()) {
    scenario::Trace trace = config.replay.jobs.empty()
                                ? scenario::generate_trace(config.trace)
                                : config.replay;
    if (!obs::write_file(trace_out, scenario::trace_csv(trace), &error)) {
      err << "tlsim: trace export failed: " << error << "\n";
      return 1;
    }
  }

  ScenarioPlan plan;
  if (args.has("scenario-compare")) {
    plan = ScenarioPlan::policy_comparison(config);
  } else {
    plan.add(core::to_string(config.controller.policy), config);
  }
  ScenarioReport report = run_scenario_plan(plan, options.jobs);

  metrics::Table table({"policy", "jobs", "done", "evict", "rej", "unfin",
                        "mean JCT (s)", "p99 JCT", "mean wait (s)",
                        "peak coloc", "cpu util", "rotations", "tc cmds"});
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    add_scenario_row(&table, report.labels[i], report.results[i]);
  }
  emit(table, args.has("csv"), out);

  std::string json_path = args.get("scenario-out");
  std::string csv_path = args.get("scenario-csv");
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const scenario::Result& r = report.results[i];
    bool multi = report.results.size() > 1;
    if (!json_path.empty()) {
      std::string path =
          multi ? obs::per_run_path(json_path, report.labels[i]) : json_path;
      if (!obs::write_file(path, scenario::scenario_json(r), &error)) {
        err << "tlsim: scenario export failed: " << error << "\n";
        return 1;
      }
    }
    if (!csv_path.empty()) {
      std::string path =
          multi ? obs::per_run_path(csv_path, report.labels[i]) : csv_path;
      if (!obs::write_file(path, scenario::scenario_csv(r), &error)) {
        err << "tlsim: scenario export failed: " << error << "\n";
        return 1;
      }
    }
  }
  return 0;
}

// ---------------------------------------------------------------------
// Flag tables: a command accepts exactly the flags it reads, so a typo
// (--iter) or another command's flag (--trace on scenario) fails with the
// valid list instead of silently running the defaults.

/// Cluster, controller and output flags every command reads.
constexpr std::string_view kClusterFlags[] = {
    "hosts",     "seed",     "bands", "interval-s", "link-gbps",
    "strategy",  "threads",  "csv",   "metrics",
};
/// The static testbed's workload, execution and observability flags.
constexpr std::string_view kTestbedFlags[] = {
    "jobs",         "workers",      "ps",          "iters",
    "background",   "progress",     "trace",       "trace-csv",
    "trace-filter", "trace-sample", "report",      "report-csv",
    "report-json",  "report-html",
};
/// The dynamic cluster's flags.
constexpr std::string_view kScenarioFlags[] = {
    "policy",                "cores",
    "scenario-jobs",         "scenario-arrivals",
    "scenario-mean-s",       "scenario-pareto-alpha",
    "scenario-pareto-min-s", "scenario-pareto-max-s",
    "scenario-models",       "scenario-workers-min",
    "scenario-workers-max",  "scenario-iters-min",
    "scenario-iters-max",    "scenario-batch",
    "scenario-evict-frac",   "scenario-evict-min-s",
    "scenario-evict-max-s",  "scenario-trace-seed",
    "scenario-admission",    "scenario-band-limit",
    "scenario-time-limit-s", "scenario-sample-s",
    "scenario-compare",      "scenario-trace",
    "scenario-trace-out",    "scenario-out",
    "scenario-csv",
};
// What each static command reads beyond the testbed flags: compare and
// the sweeps run every policy, sweep-placement every Table I placement and
// sweep-batch every batch size themselves.
constexpr std::string_view kRunFlags[] = {"policy", "placement", "batch",
                                          "replicas", "export-prefix"};
constexpr std::string_view kCompareFlags[] = {"placement", "batch"};
constexpr std::string_view kSweepPlacementFlags[] = {"batch"};
constexpr std::string_view kSweepBatchFlags[] = {"placement"};

struct Command {
  std::string_view name;
  std::span<const std::string_view> group;
  std::span<const std::string_view> own;
};

constexpr Command kCommands[] = {
    {"run", kTestbedFlags, kRunFlags},
    {"compare", kTestbedFlags, kCompareFlags},
    {"sweep-placement", kTestbedFlags, kSweepPlacementFlags},
    {"sweep-batch", kTestbedFlags, kSweepBatchFlags},
    {"scenario", kScenarioFlags, {}},
};

/// Rejects the first flag `command` does not read, listing the ones it
/// does.
bool check_flags(const Command& command, const CliArgs& args,
                 std::string* error) {
  std::vector<std::string_view> valid(std::begin(kClusterFlags),
                                      std::end(kClusterFlags));
  valid.insert(valid.end(), command.group.begin(), command.group.end());
  valid.insert(valid.end(), command.own.begin(), command.own.end());
  for (const auto& [key, value] : args.flags) {
    (void)value;
    if (std::find(valid.begin(), valid.end(), key) != valid.end()) continue;
    std::string list;
    for (std::string_view name : valid) {
      list += list.empty() ? "--" : ", --";
      list += name;
    }
    *error = "unknown flag --" + key + " (valid flags for " +
             std::string(command.name) + ": " + list + ")";
    return false;
  }
  return true;
}

/// Runs a known command whose flags passed check_flags.
int dispatch(const std::string& command, const CliArgs& args,
             std::ostream& out, std::ostream& err) {
  std::string error;
  RunOptions options;
  if (!build_run_options(args, &options, &error)) {
    err << "tlsim: " << error << "\n";
    return 2;
  }
  // The scenario command has its own configuration surface (dynamic
  // cluster, not the static testbed), so it skips build_config.
  if (command == "scenario") return cmd_scenario(args, options, out, err);

  exp::ExperimentConfig config;
  if (!build_config(args, &config, &error)) {
    err << "tlsim: " << error << "\n";
    return 2;
  }
  if (command == "run") return cmd_run(args, config, options, out, err);
  if (command == "compare") return cmd_compare(args, config, options, out);
  if (command == "sweep-placement") {
    return cmd_sweep_placement(args, config, options, out);
  }
  return cmd_sweep_batch(args, config, options, out);
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  CliArgs parsed;
  std::string error;
  if (!parse_args(args, &parsed, &error)) {
    err << "tlsim: " << error << "\n" << kUsage;
    return 2;
  }
  std::string command =
      parsed.positional.empty() ? "help" : parsed.positional.front();
  if (command == "help" || command == "--help") {
    out << kUsage;
    return 0;
  }
  const Command* spec = nullptr;
  for (const Command& c : kCommands) {
    if (c.name == command) spec = &c;
  }
  if (spec == nullptr) {
    err << "tlsim: unknown command '" << command << "'\n" << kUsage;
    return 2;
  }
  if (!check_flags(*spec, parsed, &error)) {
    err << "tlsim: " << error << "\n";
    return 2;
  }
  // A run that fails (an unwritable artifact path, a configuration the
  // simulator rejects) reports its message instead of aborting.
  try {
    return dispatch(command, parsed, out, err);
  } catch (const std::exception& e) {
    err << "tlsim: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace tls::runtime
