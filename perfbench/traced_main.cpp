// The traced run: per-layer numbers for one workload, measured from the
// benchmark's own code around calls into each src/ module.
//
//   perfbench_traced --workload NAME --seed N [--scale paper|tiny]
//                    [--seconds S] [--spans PATH]
//
// Paper workloads are assembled here from the same public components
// exp::run_experiment wires together (Fabric -> TrafficControl ->
// Controller -> Launcher, then 1 s Simulator::run slices), so each
// boundary can be timed; an equivalence guard checks the assembly still
// reproduces run_experiment's result. scenario_churn is timed around
// scenario::run_scenario. Set-up also captures host 0's qdisc stream and
// replays it through fresh qdiscs for ns/op.
//
// Prints one line per metric, the metrics this workload cannot measure
// with the reason, and as its last line one JSON object. Exit code 0 when
// every check passed.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "cluster/launcher.hpp"
#include "cluster/placement.hpp"
#include "metrics/util_sampler.hpp"
#include "net/fabric.hpp"
#include "net/pfifo_qdisc.hpp"
#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/reader.hpp"
#include "obs/report_cli.hpp"
#include "obs/streaming.hpp"
#include "obs/trace.hpp"
#include "simcore/simulator.hpp"
#include "spans.hpp"
#include "tc/tc.hpp"
#include "tensorlights/controller.hpp"
#include "workload/gridsearch.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace cluster = tls::cluster;
namespace core = tls::core;
namespace exp = tls::exp;
namespace metrics = tls::metrics;
namespace net = tls::net;
namespace obs = tls::obs;
namespace scenario = tls::scenario;
namespace sim = tls::sim;
namespace tc = tls::tc;
using perfbench::AllocCount;
using perfbench::Inputs;
using perfbench::SpanRecorder;
using perfbench::ScopedSpan;
using perfbench::Workload;
using perfbench::fmt;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Paper assembly: run_experiment's wiring, with a span at every boundary.

struct Assembly {
  // What the equivalence guard compares against exp::run_experiment.
  std::uint64_t sim_events = 0;
  std::vector<exp::JobResult> jobs;
  std::vector<std::string> tc_history;
  std::uint64_t rotations = 0;
  bool all_finished = false;
  double cpu_util_ps_hosts = 0, cpu_util_worker_hosts = 0;
  double nic_in_util = 0, nic_out_util = 0;
  // Layer counters.
  sim::EventQueue::Stats queue{};
  std::uint64_t chunks = 0;
  std::uint64_t flows = 0;
  std::uint64_t ff_promotions = 0, ff_polls = 0;
  net::Bytes egress_bytes{}, ingress_bytes{};
  std::size_t active_flows = 0;
  AllocCount loop_allocs;
  // Timings (s) and the per-slice host ns per dispatched event.
  double setup_s = 0, jobs_s = 0, launch_s = 0, loop_s = 0, collect_s = 0;
  std::vector<double> slice_ns_per_event;
};

Assembly run_assembly(const exp::ExperimentConfig& config, obs::Tracer* tracer,
                      SpanRecorder& spans) {
  if (config.background || config.coordinated_transport ||
      config.workload.ps_per_job != 1) {
    throw std::invalid_argument("assembly covers the paper testbed only");
  }
  Assembly a;
  sim::Simulator simulator(config.seed);
  if (tracer != nullptr) simulator.set_tracer(tracer);

  ScopedSpan setup(spans, "exp.setup");
  net::FabricConfig fabric_config = config.fabric;
  fabric_config.num_hosts = config.num_hosts;
  net::Fabric fabric(simulator, fabric_config);
  tc::TrafficControl control(fabric);
  core::Controller controller(simulator, control, config.controller);
  metrics::BusyAccumulator busy(config.num_hosts);
  metrics::NicSampler nic(simulator, fabric, config.nic_sample_period,
                          nullptr);
  cluster::Launcher launcher(simulator, fabric);
  launcher.add_listener(&controller);
  launcher.set_busy_sink([&busy](net::HostId h, sim::Time b, sim::Time e) {
    busy.add(h, b, e);
  });
  ScopedSpan jobs_span(spans, "workload.jobs");
  std::vector<tls::dl::JobSpec> specs =
      tls::workload::grid_search_jobs(config.workload);
  jobs_span.close();
  ScopedSpan launch_span(spans, "cluster.launch");
  std::vector<tls::dl::JobPlacement> placements = cluster::assign_tasks(
      config.placement, config.num_hosts, config.workload.workers_per_job);
  cluster::LaunchConfig launch;
  launch.stagger = config.stagger;
  launcher.launch_all(std::move(specs), std::move(placements), launch);
  launch_span.close();
  // run_experiment arms this gauge sampler whenever a tracer is attached;
  // its events are part of the traced workload.
  std::unique_ptr<sim::PeriodicTimer> obs_sampler;
  if (tracer != nullptr && config.obs.sample_period > sim::Time{0}) {
    obs_sampler = std::make_unique<sim::PeriodicTimer>(
        simulator, config.obs.sample_period, [&] {
          for (net::HostId h{0}; h < net::HostId{config.num_hosts}; ++h) {
            tracer->gauge_sample(
                simulator.now(), "egress_backlog_bytes", h, -1,
                net::to_double(fabric.egress(h).qdisc().backlog_bytes()));
          }
          std::int64_t lead = 0;
          for (const auto& job : launcher.jobs()) {
            lead = std::max(lead, job->iteration());
          }
          for (const auto& job : launcher.jobs()) {
            tracer->gauge_sample(simulator.now(), "job_iteration_lag",
                                 net::kNoHost, job->spec().job_id,
                                 static_cast<double>(lead - job->iteration()));
          }
        });
    obs_sampler->start();
  }
  setup.close();
  a.setup_s = setup.seconds();
  a.jobs_s = jobs_span.seconds();
  a.launch_s = launch_span.seconds();

  a.slice_ns_per_event.reserve(1 << 14);
  ScopedSpan loop(spans, "simcore.loop");
  const AllocCount before = perfbench::alloc_count();
  const sim::Time slice = 1 * sim::kSecond;
  while (!launcher.all_finished() && simulator.now() < config.time_limit &&
         !simulator.idle()) {
    ScopedSpan run(spans, "simcore.run_slice");
    const std::uint64_t n = simulator.run(simulator.now() + slice);
    run.close();
    a.loop_s += run.seconds();
    if (n > 0) {
      a.slice_ns_per_event.push_back(run.seconds() * 1e9 /
                                     static_cast<double>(n));
    }
  }
  a.loop_allocs = perfbench::alloc_count() - before;
  loop.close();

  // Result collection as run_experiment does it: per-job JCT and barrier
  // statistics from dl, utilisation over the active window from metrics.
  ScopedSpan collect(spans, "exp.collect");
  sim::Time last_launch =
      config.stagger * static_cast<std::int64_t>(launcher.jobs().size() - 1);
  sim::Time first_finish = sim::kTimeMax;
  for (const auto& job : launcher.jobs()) {
    exp::JobResult jr;
    jr.job_id = job->spec().job_id;
    jr.finished = job->finished();
    jr.iterations = job->iteration();
    if (job->finished()) {
      jr.jct_s = sim::to_seconds(job->jct());
      first_finish = std::min(first_finish, job->finish_time());
    }
    jr.barrier_mean_waits_s = job->barrier_log().mean_waits();
    jr.barrier_variances_s2 = job->barrier_log().variances();
    a.jobs.push_back(std::move(jr));
  }
  if (first_finish != sim::kTimeMax && first_finish > last_launch) {
    const double span_ns =
        static_cast<double>(sim::to_nanos(first_finish - last_launch));
    const sim::Time begin =
        last_launch + sim::Time{static_cast<std::int64_t>(
                          config.active_window_begin_frac * span_ns)};
    const sim::Time end =
        last_launch + sim::Time{static_cast<std::int64_t>(
                          config.active_window_end_frac * span_ns)};
    std::set<net::HostId> ps_hosts;
    for (const auto& job : launcher.jobs()) {
      for (int p = 0; p < job->placement().ps_count(); ++p) {
        ps_hosts.insert(job->placement().ps_shard_host(p));
      }
    }
    double cpu_ps = 0, cpu_wk = 0, nic_in = 0, nic_out = 0;
    int n_ps = 0, n_wk = 0;
    for (net::HostId h{0}; h < net::HostId{config.num_hosts}; ++h) {
      const double cpu =
          busy.cpu_utilization(h, begin, end, config.cores_per_host);
      if (ps_hosts.count(h)) {
        cpu_ps += cpu;
        ++n_ps;
      } else {
        cpu_wk += cpu;
        ++n_wk;
      }
      nic_in += nic.utilization(h, /*outbound=*/false, begin, end);
      nic_out += nic.utilization(h, /*outbound=*/true, begin, end);
    }
    a.cpu_util_ps_hosts = n_ps ? cpu_ps / n_ps : 0;
    a.cpu_util_worker_hosts = n_wk ? cpu_wk / n_wk : 0;
    a.nic_in_util = nic_in / config.num_hosts;
    a.nic_out_util = nic_out / config.num_hosts;
  }
  collect.close();
  a.collect_s = collect.seconds();
  if (obs_sampler) obs_sampler->stop();

  a.sim_events = simulator.dispatched();
  a.queue = simulator.queue_stats();
  a.tc_history = control.history();
  a.rotations = controller.rotations();
  a.all_finished = launcher.all_finished();
  a.flows = fabric.completed_flows();
  a.active_flows = fabric.active_flows();
  for (net::HostId h{0}; h < net::HostId{config.num_hosts}; ++h) {
    a.chunks += fabric.egress(h).counters().chunks;
    a.egress_bytes += fabric.egress(h).counters().bytes;
    a.ingress_bytes += fabric.ingress(h).counters().bytes;
    a.ff_promotions += fabric.egress(h).ff_promotions();
    a.ff_polls += fabric.egress(h).ff_polls();
  }
  return a;
}

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!same_bits(x[i], y[i])) return false;
  }
  return true;
}

/// Equivalence guard: "" when the assembly reproduced run_experiment.
std::string compare(const Assembly& a, const exp::ExperimentResult& r,
                    std::int64_t iterations) {
  if (a.sim_events != r.sim_events) {
    return fmt("sim_events %" PRIu64 " != run_experiment's %" PRIu64,
               a.sim_events, r.sim_events);
  }
  if (a.tc_history.size() != r.tc_commands || a.rotations != r.rotations) {
    return fmt("tc commands %zu / rotations %" PRIu64
               " != run_experiment's %" PRIu64 " / %" PRIu64,
               a.tc_history.size(), a.rotations, r.tc_commands, r.rotations);
  }
  if (a.jobs.size() != r.jobs.size()) return "job count differs";
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const exp::JobResult& x = a.jobs[i];
    const exp::JobResult& y = r.jobs[i];
    if (x.job_id != y.job_id || x.iterations != y.iterations ||
        x.finished != y.finished || !same_bits(x.jct_s, y.jct_s) ||
        !same_bits(x.barrier_mean_waits_s, y.barrier_mean_waits_s) ||
        !same_bits(x.barrier_variances_s2, y.barrier_variances_s2)) {
      return fmt("job %d differs from run_experiment's", y.job_id);
    }
  }
  if (!same_bits(a.cpu_util_ps_hosts, r.cpu_util_ps_hosts) ||
      !same_bits(a.cpu_util_worker_hosts, r.cpu_util_worker_hosts) ||
      !same_bits(a.nic_in_util, r.nic_in_util) ||
      !same_bits(a.nic_out_util, r.nic_out_util)) {
    return "utilisation differs from run_experiment's";
  }
  if (!a.all_finished) return "not every job finished";
  for (const exp::JobResult& j : a.jobs) {
    if (j.iterations != iterations) return "a job missed its iteration target";
  }
  if (a.egress_bytes != a.ingress_bytes) {
    return "egress bytes != ingress bytes";
  }
  if (a.active_flows != 0) {
    return fmt("%zu flows still active at the end", a.active_flows);
  }
  return "";
}

// ---------------------------------------------------------------------------
// Qdisc replay: host 0's captured enqueue/dequeue stream through a fresh
// qdisc via the public Qdisc API.

struct QEvent {
  bool enqueue = true;
  sim::Time at{};
  std::int64_t flow = 0;
  std::int64_t index = 0;
  std::int64_t bytes = 0;
  std::int32_t band = -1;
  std::int32_t job = -1;
};

std::vector<QEvent> host_stream(const obs::Tracer& tracer, int host) {
  std::vector<QEvent> out;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.host != host) continue;
    if (e.kind != obs::EventKind::kChunkEnqueue &&
        e.kind != obs::EventKind::kChunkDequeue) {
      continue;
    }
    QEvent q;
    q.enqueue = e.kind == obs::EventKind::kChunkEnqueue;
    q.at = e.at;
    q.flow = e.flow;
    q.index = e.b;
    q.bytes = e.bytes;
    q.band = e.band;
    q.job = e.job;
    out.push_back(q);
  }
  return out;
}

/// Feeds `stream` through `q`; "" when every dequeue returned the chunk the
/// capture saw leave, else where the replay diverged.
std::string replay(net::Qdisc& q, const std::vector<QEvent>& stream) {
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const QEvent& e = stream[i];
    if (e.enqueue) {
      net::Chunk c;
      c.flow = static_cast<net::FlowId>(e.flow);
      c.size = net::Bytes{e.bytes};
      c.index = static_cast<std::uint32_t>(e.index);
      c.band = net::BandId{e.band};
      c.job = e.job;
      c.enqueued_at = e.at;
      q.enqueue(c);
      continue;
    }
    const net::DequeueResult r = q.dequeue(e.at);
    if (r.kind != net::DequeueResult::Kind::kChunk ||
        r.chunk.flow != static_cast<net::FlowId>(e.flow) ||
        r.chunk.index != static_cast<std::uint32_t>(e.index)) {
      return fmt("op %zu of %zu: captured flow %" PRId64 " chunk %" PRId64
                 " left first, the replay disagreed",
                 i, stream.size(), e.flow, e.index);
    }
  }
  return "";
}

/// A fresh fabric whose tc state comes from replaying a run's history; its
/// host 0 egress qdisc is the htb under test.
struct TcBed {
  sim::Simulator simulator;
  net::Fabric fabric;
  tc::TrafficControl control;
  double exec_s = 0;
  std::string error;

  TcBed(int num_hosts, const std::vector<std::string>& history)
      : simulator(1), fabric(simulator, fabric_config(num_hosts)),
        control(fabric) {
    const Clock::time_point t0 = Clock::now();
    for (const std::string& line : history) {
      const tc::Status s = control.exec(line);
      if (!s.ok && error.empty()) error = "'" + line + "': " + s.error;
    }
    exec_s = seconds_since(t0);
  }

  static net::FabricConfig fabric_config(int num_hosts) {
    net::FabricConfig c;
    c.num_hosts = num_hosts;
    return c;
  }

  net::Qdisc& qdisc() { return fabric.egress(net::HostId{0}).qdisc(); }
};

struct ReplayResult {
  std::string unmeasured;  ///< reason, when the replay was not faithful
  double ns_per_op = 0;
};

template <typename Fresh>
ReplayResult time_replay(const std::vector<QEvent>& stream, int reps,
                         Fresh fresh) {
  ReplayResult out;
  if (stream.empty()) {
    out.unmeasured = "the capture saw no traffic at host 0";
    return out;
  }
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    auto bed = fresh();
    const Clock::time_point t0 = Clock::now();
    std::string diverged = replay(bed->qdisc(), stream);
    const double s = seconds_since(t0);
    if (!diverged.empty()) {
      out.unmeasured = "replay not faithful: " + diverged;
      return out;
    }
    ns.push_back(s * 1e9 / static_cast<double>(stream.size()));
  }
  out.ns_per_op = median(ns);
  return out;
}

struct PfifoBed {
  net::PfifoQdisc q;
  net::Qdisc& qdisc() { return q; }
};

// ---------------------------------------------------------------------------
// Metric table.

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr MetricDef kMetrics[] = {
    {"simcore.events", "count"},
    {"simcore.events_per_iter", "count"},
    {"simcore.loop_s", "s"},
    {"simcore.ns_per_event", "ns"},
    {"simcore.ns_per_event_tail", "ns"},
    {"simcore.allocs_per_event", "count"},
    {"simcore.alloc_bytes_per_event", "B"},
    {"simcore.cancelled", "count"},
    {"simcore.tombstones_skipped", "count"},
    {"simcore.overflow_pulls", "count"},
    {"simcore.window_jumps", "count"},
    {"net.chunks", "count"},
    {"net.flows", "count"},
    {"net.ff_hit_share", "share"},
    {"net.pfifo_ns_per_op", "ns"},
    {"net.htb_ns_per_op", "ns"},
    {"tc.commands", "count"},
    {"tc.us_per_command", "us"},
    {"tensorlights.rotations", "count"},
    {"exp.setup_s", "s"},
    {"workload.jobs_s", "s"},
    {"cluster.launch_s", "s"},
    {"exp.collect_s", "s"},
    {"obs.events_per_iter", "count"},
    {"obs.log_bytes", "B"},
    {"obs.peak_retained_records", "count"},
    {"obs.emit_s", "s"},
    {"obs.analyze_events_per_s", "1/s"},
    {"obs.render_s", "s"},
    {"obs.csv_write_s", "s"},
    {"obs.csv_bytes_per_event", "B"},
    {"obs.csv_read_events_per_s", "1/s"},
    {"obs.offline_report_s", "s"},
    {"scenario.run_s", "s"},
    {"scenario.ns_per_event", "ns"},
    {"scenario.allocs_per_event", "count"},
    {"scenario.tc_commands", "count"},
    {"scenario.rotations", "count"},
    {"scenario.evicted", "count"},
    {"scenario.peak_ps_colocation", "count"},
    {"workload.trace_gen_s", "s"},
    {"bench.span_overhead", "share"},
};

/// Per-rep values: counts must repeat exactly across reps, timings are
/// reported as the median over reps.
class Reps {
 public:
  void count(const std::string& name, double v) { counts_[name].push_back(v); }
  void time(const std::string& name, double v) { times_[name].push_back(v); }
  void unmeasured(const std::string& name, const std::string& why) {
    unmeasured_[name] = why;
  }

  /// "" when every count repeated exactly, else the first that did not.
  std::string repeat_failure() const {
    for (const auto& [name, v] : counts_) {
      for (double x : v) {
        if (!same_bits(x, v.front())) {
          return fmt("%s did not repeat: %.17g vs %.17g", name.c_str(),
                     v.front(), x);
        }
      }
    }
    return "";
  }

  bool has(const std::string& name) const {
    return counts_.count(name) || times_.count(name);
  }
  double value(const std::string& name) const {
    auto c = counts_.find(name);
    if (c != counts_.end()) return c->second.front();
    auto t = times_.find(name);
    return t == times_.end() ? 0 : median(t->second);
  }
  const std::map<std::string, std::string>& unmeasured() const {
    return unmeasured_;
  }

 private:
  std::map<std::string, std::vector<double>> counts_;
  std::map<std::string, std::vector<double>> times_;
  std::map<std::string, std::string> unmeasured_;
};

/// Highest-percentile sample with at least ten samples beyond it, plus the
/// percentile and sample count it came from.
double tail_value(std::vector<double> v, double* pct) {
  std::sort(v.begin(), v.end());
  if (v.size() < 11) {
    *pct = 0;
    return v.empty() ? 0 : v.back();
  }
  const std::size_t rank = v.size() - 11;
  *pct = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(v.size());
  return v[rank];
}

struct Run {
  Reps reps;
  int attempted = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;

  void check(const std::string& what, const std::string& failure) {
    ++attempted;
    if (!failure.empty()) failures.push_back(what + ": " + failure);
  }
};

constexpr const char* kNoObs =
    "not exercised: this workload runs no tracer or report pipeline";
constexpr const char* kNoScenario =
    "not exercised: this workload does not run scenario::run_scenario";

// ---------------------------------------------------------------------------
// Paper workloads.

void traced_paper(const perfbench::Args& args, Inputs& in, SpanRecorder& spans,
                  Run& run) {
  const bool report = in.workload == Workload::kPaperReport;
  const exp::ExperimentConfig& cfg = in.experiment;
  const double job_iters = static_cast<double>(
      static_cast<std::int64_t>(cfg.workload.num_jobs) * in.iterations);

  // Set-up: capture host 0's qdisc stream once with a chunk-only tracer.
  // Trace events carry no per-flow WDRR weight, so the htb capture runs
  // with the TCP weight noise off; every replayed chunk then has weight 1.
  const std::int64_t capture_iters =
      std::min<std::int64_t>(in.iterations, 10);
  exp::ExperimentConfig capture_cfg = perfbench::paper_config(
      cfg.controller.policy, capture_iters, in.seed, in.scale);
  if (report) capture_cfg.fabric.tcp_weight_sigma = 0;
  std::vector<QEvent> stream;
  std::vector<std::string> capture_history;
  {
    SpanRecorder scratch(1 << 12);
    obs::Tracer capture(static_cast<std::uint32_t>(obs::Cat::kChunk));
    Assembly c = run_assembly(capture_cfg, &capture, scratch);
    stream = host_stream(capture, 0);
    capture_history = c.tc_history;
  }

  // Guard: one timed pass through the product entry points.
  const Clock::time_point t_guard = Clock::now();
  perfbench::PassOutput guard = perfbench::run_pass(in);
  const double untraced_s = seconds_since(t_guard);
  run.check("untraced pass", perfbench::check_pass(in, guard));
  const std::string guard_report =
      report ? in.files->report_text.read() : std::string();

  std::vector<std::string> history;  // the workload's tc history
  const Clock::time_point t_reps = Clock::now();
  for (int rep = 1;; ++rep) {
    spans.set_rep(rep);
    Reps& R = run.reps;
    const Clock::time_point t_pass = Clock::now();
    std::unique_ptr<obs::Tracer> tracer;
    if (report) tracer = std::make_unique<obs::Tracer>(obs::kAllCats);
    Assembly a;
    std::string failure;
    std::uint64_t trace_events = 0;
    {
      ScopedSpan pass(spans, "bench.traced_pass");
      a = run_assembly(cfg, tracer.get(), spans);
      if (report) {
        trace_events = tracer->size();
        const double events = static_cast<double>(trace_events);
        R.count("obs.events_per_iter", events / job_iters);
        R.count("obs.log_bytes",
                static_cast<double>(tracer->events().capacity() *
                                    sizeof(obs::TraceEvent)));
        {
          ScopedSpan s(spans, "obs.csv_write");
          std::ofstream(in.files->trace_csv.path(), std::ios::binary)
              << obs::trace_csv(*tracer);
          s.close();
          R.time("obs.csv_write_s", s.seconds());
        }
        R.count("obs.csv_bytes_per_event",
                static_cast<double>(in.files->trace_csv.size()) / events);
        obs::StreamingAnalyzer analyzer;
        obs::RunReport rr;
        {
          ScopedSpan s(spans, "obs.analyze");
          for (const obs::TraceEvent& e : tracer->events()) analyzer.ingest(e);
          analyzer.set_health(tracer->health());
          rr = analyzer.finish();
          s.close();
          R.time("obs.analyze_events_per_s", events / s.seconds());
        }
        R.count("obs.peak_retained_records",
                static_cast<double>(analyzer.peak_retained_records()));
        std::string text, json;
        {
          ScopedSpan s(spans, "obs.render");
          text = obs::report_text(rr);
          json = obs::report_json(rr);
          s.close();
          R.time("obs.render_s", s.seconds());
        }
        tracer.reset();  // the offline half starts from the file alone
        {
          const std::string csv = in.files->trace_csv.path();
          const std::string out_json = in.files->offline_json.path();
          const char* argv[] = {"tlsreport", csv.c_str(), "--json",
                                out_json.c_str()};
          std::ostringstream offline, err;
          ScopedSpan s(spans, "obs.offline_report");
          const int rc = obs::run_report_cli(4, argv, offline, err);
          s.close();
          R.time("obs.offline_report_s", s.seconds());
          if (rc != 0 || offline.str() != text ||
              in.files->offline_json.read() != json) {
            failure = "offline report differs from the in-process one";
          } else if (text != guard_report) {
            failure = "traced report differs from run_experiment's";
          }
        }
      }
      pass.close();
      R.time("bench.span_overhead", pass.seconds() / untraced_s - 1);
      if (report) {
        // Reader throughput on its own; the timed pass has no such step.
        std::uint64_t read = 0;
        std::string err;
        ScopedSpan s(spans, "obs.csv_read");
        const bool ok = obs::for_each_trace_csv_event(
            in.files->trace_csv.path(),
            [&read](const obs::TraceEvent&) { ++read; }, nullptr, &err);
        s.close();
        if (!ok || read != trace_events) {
          failure = "trace CSV read back " + std::to_string(read) +
                    " events: " + err;
        }
        R.time("obs.csv_read_events_per_s",
               static_cast<double>(read) / s.seconds());
      }
    }
    if (failure.empty()) failure = compare(a, guard.experiment, in.iterations);
    history = a.tc_history;
    run.check(fmt("traced rep %d", rep), failure);

    const double events = static_cast<double>(a.sim_events);
    R.count("simcore.events", events);
    R.count("simcore.events_per_iter", events / job_iters);
    R.time("simcore.loop_s", a.loop_s);
    R.time("simcore.ns_per_event", median(a.slice_ns_per_event));
    double pct = 0;
    R.time("simcore.ns_per_event_tail", tail_value(a.slice_ns_per_event, &pct));
    if (rep == 1) {
      run.notes.push_back(fmt(
          "simcore.ns_per_event_tail is p%.1f of %zu slices (median is "
          "simcore.ns_per_event)",
          pct, a.slice_ns_per_event.size()));
    }
    R.count("simcore.allocs_per_event",
            static_cast<double>(a.loop_allocs.allocs) / events);
    R.count("simcore.alloc_bytes_per_event",
            static_cast<double>(a.loop_allocs.bytes) / events);
    R.count("simcore.cancelled", static_cast<double>(a.queue.cancelled));
    R.count("simcore.tombstones_skipped",
            static_cast<double>(a.queue.tombstones_skipped));
    R.count("simcore.overflow_pulls",
            static_cast<double>(a.queue.overflow_pulls));
    R.count("simcore.window_jumps", static_cast<double>(a.queue.window_jumps));
    R.count("net.chunks", static_cast<double>(a.chunks));
    R.count("net.flows", static_cast<double>(a.flows));
    R.count("net.ff_hit_share",
            a.ff_promotions + a.ff_polls == 0
                ? 0
                : static_cast<double>(a.ff_promotions) /
                      static_cast<double>(a.ff_promotions + a.ff_polls));
    R.count("tc.commands", static_cast<double>(a.tc_history.size()));
    R.count("tensorlights.rotations", static_cast<double>(a.rotations));
    R.time("exp.setup_s", a.setup_s);
    R.time("workload.jobs_s", a.jobs_s);
    R.time("cluster.launch_s", a.launch_s);
    R.time("exp.collect_s", a.collect_s);

    if (report) {
      // The tracer belongs to the workload; its cost is a separate
      // benchmark-side pass of the same config without it.
      Assembly plain = run_assembly(cfg, nullptr, spans);
      R.time("obs.emit_s", a.loop_s - plain.loop_s);
    }
    const double elapsed = seconds_since(t_reps);
    const double per_rep = seconds_since(t_pass);
    if (rep >= 5 || (rep >= 2 && elapsed + per_rep > args.seconds)) break;
  }

  // Replays, from the set-up capture.
  const int replay_reps = 21;
  Reps& R = run.reps;
  if (report) {
    R.unmeasured("net.pfifo_ns_per_op",
                 "host 0 runs htb under TLs-One; a pfifo replay cannot "
                 "reproduce its service order");
    ReplayResult htb = time_replay(stream, replay_reps, [&] {
      return std::make_unique<TcBed>(capture_cfg.num_hosts, capture_history);
    });
    if (htb.unmeasured.empty()) {
      R.time("net.htb_ns_per_op", htb.ns_per_op);
    } else {
      R.unmeasured("net.htb_ns_per_op", htb.unmeasured);
    }
    // tc: the traced workload's own history, applied to fresh fabrics.
    std::vector<double> us;
    for (int i = 0; i < replay_reps && !history.empty(); ++i) {
      TcBed bed(cfg.num_hosts, history);
      if (!bed.error.empty()) {
        run.check("tc history replay", bed.error);
        break;
      }
      us.push_back(bed.exec_s * 1e6 / static_cast<double>(history.size()));
    }
    if (us.empty()) {
      R.unmeasured("tc.us_per_command", "the run issued no tc command");
    } else {
      R.time("tc.us_per_command", median(us));
    }
  } else {
    ReplayResult pfifo = time_replay(stream, replay_reps, [] {
      return std::make_unique<PfifoBed>();
    });
    if (pfifo.unmeasured.empty()) {
      R.time("net.pfifo_ns_per_op", pfifo.ns_per_op);
    } else {
      R.unmeasured("net.pfifo_ns_per_op", pfifo.unmeasured);
    }
    R.unmeasured("net.htb_ns_per_op",
                 "not exercised: FIFO issues no tc commands, host 0 runs "
                 "pfifo");
    R.unmeasured("tc.us_per_command",
                 "not exercised: FIFO issues no tc commands");
    for (const MetricDef& m : kMetrics) {
      if (std::string(m.name).rfind("obs.", 0) == 0) R.unmeasured(m.name, kNoObs);
    }
  }
  run.notes.push_back(fmt("replayed host 0 stream: %zu ops from a %" PRId64
                          "-iteration capture",
                          stream.size(), capture_iters));
  for (const MetricDef& m : kMetrics) {
    const std::string name = m.name;
    if (name.rfind("scenario.", 0) == 0 || name == "workload.trace_gen_s") {
      R.unmeasured(name, kNoScenario);
    }
  }
}

// ---------------------------------------------------------------------------
// scenario_churn: spans around run_scenario.

void traced_scenario(const perfbench::Args& args, Inputs& in,
                     SpanRecorder& spans, Run& run) {
  Reps& R = run.reps;
  {
    std::vector<double> gen;
    for (int i = 0; i < 21; ++i) {
      ScopedSpan s(spans, "workload.trace_gen");
      scenario::Trace t = scenario::generate_trace(in.scenario.trace);
      s.close();
      gen.push_back(s.seconds());
    }
    R.time("workload.trace_gen_s", median(gen));
  }
  const Clock::time_point t_guard = Clock::now();
  perfbench::PassOutput guard = perfbench::run_pass(in);
  const double untraced_s = seconds_since(t_guard);
  run.check("untraced pass", perfbench::check_pass(in, guard));
  std::string unused;
  const std::string guard_digest = perfbench::digest(in, guard, &unused);

  const Clock::time_point t_reps = Clock::now();
  for (int rep = 1;; ++rep) {
    spans.set_rep(rep);
    const Clock::time_point t_pass = Clock::now();
    perfbench::PassOutput out;
    ScopedSpan s(spans, "scenario.run");
    const AllocCount before = perfbench::alloc_count();
    out.scenario = scenario::run_scenario(in.scenario);
    const AllocCount used = perfbench::alloc_count() - before;
    s.close();
    std::string failure = perfbench::check_pass(in, out);
    if (failure.empty() && perfbench::digest(in, out, &unused) != guard_digest) {
      failure = "traced run_scenario result differs from the untraced pass";
    }
    run.check(fmt("traced rep %d", rep), failure);

    const scenario::Result& r = out.scenario;
    const double events = static_cast<double>(r.sim_events);
    R.time("scenario.run_s", s.seconds());
    R.time("scenario.ns_per_event", s.seconds() * 1e9 / events);
    R.time("bench.span_overhead", s.seconds() / untraced_s - 1);
    R.count("scenario.allocs_per_event",
            static_cast<double>(used.allocs) / events);
    R.count("scenario.tc_commands", static_cast<double>(r.tc_commands));
    R.count("scenario.rotations", static_cast<double>(r.rotations));
    R.count("scenario.evicted", static_cast<double>(r.evicted));
    R.count("scenario.peak_ps_colocation",
            static_cast<double>(r.peak_ps_colocation));
    R.count("simcore.events", events);
    R.count("simcore.events_per_iter",
            events / static_cast<double>(perfbench::job_iterations(in, out)));
    R.count("tc.commands", static_cast<double>(r.tc_commands));
    R.count("tensorlights.rotations", static_cast<double>(r.rotations));
    const double elapsed = seconds_since(t_reps);
    if (rep >= 5 || (rep >= 2 && elapsed + seconds_since(t_pass) > args.seconds)) {
      break;
    }
  }

  const char* inside =
      "run_scenario owns its Simulator, Fabric and TrafficControl; the "
      "scenario.* metrics give its whole-run numbers";
  for (const char* name :
       {"simcore.loop_s", "simcore.ns_per_event", "simcore.ns_per_event_tail",
        "simcore.allocs_per_event", "simcore.alloc_bytes_per_event",
        "simcore.cancelled", "simcore.tombstones_skipped",
        "simcore.overflow_pulls", "simcore.window_jumps", "net.chunks",
        "net.flows", "net.ff_hit_share", "net.pfifo_ns_per_op",
        "net.htb_ns_per_op", "tc.us_per_command"}) {
    R.unmeasured(name, inside);
  }
  for (const char* name : {"exp.setup_s", "workload.jobs_s", "cluster.launch_s",
                           "exp.collect_s"}) {
    R.unmeasured(name, "not exercised: scenario_churn does not run exp");
  }
  for (const MetricDef& m : kMetrics) {
    if (std::string(m.name).rfind("obs.", 0) == 0) R.unmeasured(m.name, kNoObs);
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::scrub_environment();
  perfbench::Args args;
  std::string error;
  if (!perfbench::parse_args(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench_traced: %s\n", error.c_str());
    return 2;
  }
  Workload workload;
  perfbench::parse_workload(args.workload, &workload);

  SpanRecorder spans(1 << 16);
  Run run;
  try {
    Inputs in = perfbench::make_inputs(workload, args.seed, args.scale);
    std::printf("params %s\n", perfbench::params_of(in).json().c_str());
    if (workload == Workload::kScenarioChurn) {
      traced_scenario(args, in, spans, run);
    } else {
      traced_paper(args, in, spans, run);
    }
    run.check("deterministic counts", run.reps.repeat_failure());
  } catch (const std::exception& e) {
    run.check("traced run", std::string("exception: ") + e.what());
  }
  if (!args.spans_path.empty() && !spans.write_json(args.spans_path)) {
    run.check("span file", "cannot write " + args.spans_path);
  }

  for (const std::string& note : run.notes) std::printf("note %s\n", note.c_str());
  for (const std::string& f : run.failures) std::printf("FAILED %s\n", f.c_str());
  std::string metrics_json, unmeasured_json;
  for (const MetricDef& m : kMetrics) {
    auto why = run.reps.unmeasured().find(m.name);
    const bool measured =
        why == run.reps.unmeasured().end() && run.reps.has(m.name);
    const double v = measured ? run.reps.value(m.name) : 0;
    if (measured) {
      std::printf("metric %-32s %.9g %s\n", m.name, v, m.unit);
    } else {
      const std::string reason = why == run.reps.unmeasured().end()
                                     ? "no value recorded"
                                     : why->second;
      std::printf("unmeasured %-28s %s\n", m.name, reason.c_str());
      unmeasured_json += fmt("%s\"%s\": ", unmeasured_json.empty() ? "" : ", ",
                             m.name) +
                         perfbench::json_quote(reason);
    }
    metrics_json += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        metrics_json.empty() ? "" : ", ", m.name, v, m.unit);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %zu, \"metrics\": "
      "{%s}, \"unmeasured\": {%s}}\n",
      run.failures.empty() ? "true" : "false", run.attempted,
      run.failures.size(), metrics_json.c_str(), unmeasured_json.c_str());
  return run.failures.empty() ? 0 : 1;
}
