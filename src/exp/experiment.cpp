#include "exp/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "cluster/launcher.hpp"
#include "exp/export.hpp"
#include "metrics/util_sampler.hpp"
#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/html.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/streaming.hpp"
#include "simcore/simulator.hpp"
#include "tc/tc.hpp"
#include "tensorlights/controller.hpp"

namespace tls::exp {

namespace {

/// The --trace-csv file, streamed: opened before the simulation so rows
/// land as events are emitted. Unless commit() succeeds, the destructor
/// removes the partial file, so a run that throws leaves none behind.
class StreamedTraceCsv {
 public:
  explicit StreamedTraceCsv(std::string path)
      : path_(std::move(path)),
        out_(path_, std::ios::binary | std::ios::trunc),
        writer_(out_) {
    if (!out_) {
      throw std::runtime_error("trace CSV export failed: cannot open '" +
                               path_ + "' for writing");
    }
  }
  ~StreamedTraceCsv() {
    if (committed_) return;
    out_.close();
    std::remove(path_.c_str());
  }
  StreamedTraceCsv(const StreamedTraceCsv&) = delete;
  StreamedTraceCsv& operator=(const StreamedTraceCsv&) = delete;

  obs::TraceSink* sink() { return &writer_; }

  /// Appends the health trailer and closes the file, which then takes no
  /// more rows; throws if any write failed.
  void commit(const obs::TraceHealth& health) {
    writer_.finish(health);
    out_.close();
    if (!out_) {
      throw std::runtime_error("trace CSV export failed: write to '" +
                               path_ + "' failed");
    }
    committed_ = true;
  }

 private:
  std::string path_;
  std::ofstream out_;
  obs::TraceCsvWriter writer_;
  bool committed_ = false;
};

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  if (config.placement.total_jobs() != config.workload.num_jobs) {
    throw std::invalid_argument("placement job count != workload job count");
  }

  sim::Simulator simulator(config.seed);

  // Observability attaches before any component is built so every port and
  // qdisc picks the tracer up at wiring time. The sinks are declared after
  // the tracer and before the components, so they outlive every emission.
  std::unique_ptr<obs::Registry> registry;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<StreamedTraceCsv> trace_csv;
  std::unique_ptr<obs::StreamingAnalyzer> analyzer;
  if (config.obs.any()) {
    std::uint32_t cats = config.obs.trace_categories;
    // The attribution report needs the causal-event categories regardless
    // of how narrow the user's --trace-filter is.
    if (config.obs.report_any()) cats |= obs::kAnalysisCats;
    tracer = std::make_unique<obs::Tracer>(cats);
    tracer->set_max_events(config.obs.max_events);
    if (!config.obs.trace_sample.empty()) {
      std::uint32_t every[obs::kNumCats];
      for (int i = 0; i < obs::kNumCats; ++i) every[i] = 1;
      std::string sample_err;
      if (!obs::parse_sampling(config.obs.trace_sample, every, &sample_err)) {
        throw std::invalid_argument("bad trace sampling spec: " + sample_err);
      }
      for (int i = 0; i < obs::kNumCats; ++i) {
        tracer->set_sample_every(static_cast<obs::Cat>(1u << i), every[i]);
      }
    }
    // Only the Chrome exporter needs the whole log (it lists every track
    // before the first event); the trace CSV and the report stream.
    tracer->set_retain_events(!config.obs.trace_path.empty());
    if (!config.obs.trace_csv_path.empty()) {
      trace_csv =
          std::make_unique<StreamedTraceCsv>(config.obs.trace_csv_path);
      tracer->add_sink(trace_csv->sink());
    }
    if (config.obs.report_any()) {
      // Same engine as offline tlsreport, so the in-process report and
      // `tlsreport <trace.csv>` are byte-identical (CI cmp's the two).
      analyzer = std::make_unique<obs::StreamingAnalyzer>();
      tracer->add_sink(analyzer.get());
    }
    if (!config.obs.metrics_path.empty()) {
      registry = std::make_unique<obs::Registry>();
      tracer->set_registry(registry.get());
    }
    simulator.set_tracer(tracer.get());
  }

  net::FabricConfig fabric_config = config.fabric;
  fabric_config.num_hosts = config.num_hosts;
  net::Fabric fabric(simulator, fabric_config);
  tc::TrafficControl control(fabric);
  core::Controller controller(simulator, control, config.controller);
  metrics::BusyAccumulator busy(config.num_hosts);
  metrics::NicSampler nic(simulator, fabric, config.nic_sample_period,
                          registry.get());

  std::unique_ptr<workload::BackgroundTraffic> background;
  if (config.background) {
    background = std::make_unique<workload::BackgroundTraffic>(
        simulator, fabric, config.background_config);
    background->start();
  }

  std::unique_ptr<core::CentralCoordinator> coordinator;
  if (config.coordinated_transport) {
    coordinator = std::make_unique<core::CentralCoordinator>(
        simulator, config.coordinator_config);
  }

  cluster::Launcher launcher(simulator, fabric);
  launcher.add_listener(&controller);
  if (coordinator) launcher.set_transmission_gate(coordinator.get());
  launcher.set_busy_sink([&busy](net::HostId h, sim::Time b, sim::Time e) {
    busy.add(h, b, e);
  });

  std::vector<dl::JobSpec> specs = workload::grid_search_jobs(config.workload);
  std::vector<dl::JobPlacement> placements =
      config.workload.ps_per_job > 1
          ? cluster::assign_tasks_sharded(config.placement, config.num_hosts,
                                          config.workload.workers_per_job,
                                          config.workload.ps_per_job)
          : cluster::assign_tasks(config.placement, config.num_hosts,
                                  config.workload.workers_per_job);
  cluster::LaunchConfig launch;
  launch.stagger = config.stagger;
  launcher.launch_all(std::move(specs), std::move(placements), launch);

  // Periodic gauge sampling on the simulation clock: per-host egress queue
  // depth and per-job iteration lag behind the front-runner.
  std::unique_ptr<sim::PeriodicTimer> obs_sampler;
  if (tracer && config.obs.sample_period > sim::Time{0}) {
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
            tracer->gauge_sample(
                simulator.now(), "job_iteration_lag", net::kNoHost,
                job->spec().job_id,
                static_cast<double>(lead - job->iteration()));
          }
        });
    obs_sampler->start();
  }

  // The NIC sampler and the TLs-RR rotation timer re-arm forever, so the
  // event queue never drains; run in slices until the workload completes.
  const sim::Time slice = 1 * sim::kSecond;
  while (!launcher.all_finished() && simulator.now() < config.time_limit &&
         !simulator.idle()) {
    simulator.run(simulator.now() + slice);
  }

  ExperimentResult result;
  result.policy_name = to_string(config.controller.policy);
  result.sim_events = simulator.dispatched();
  result.sim_horizon_s = sim::to_seconds(simulator.now());
  result.rotations = controller.rotations();
  result.tc_commands = control.history().size();
  result.all_finished = launcher.all_finished();
  if (background) {
    background->stop();
    result.background_flows = background->flows_completed();
    result.background_mean_fct_s = background->mean_fct_s();
  }
  if (coordinator) {
    result.coordinator_grants = coordinator->grants();
    result.coordinator_wait_s = coordinator->total_wait_s();
  }

  sim::Time last_launch =
      config.stagger * static_cast<std::int64_t>(launcher.jobs().size() - 1);
  sim::Time first_finish = sim::kTimeMax;

  std::vector<double> jcts;
  std::vector<double> pooled_means;
  std::vector<double> pooled_vars;
  for (const auto& job : launcher.jobs()) {
    JobResult jr;
    jr.job_id = job->spec().job_id;
    jr.finished = job->finished();
    jr.iterations = job->iteration();
    if (job->finished()) {
      jr.jct_s = sim::to_seconds(job->jct());
      jcts.push_back(jr.jct_s);
      first_finish = std::min(first_finish, job->finish_time());
    }
    jr.barrier_mean_waits_s = job->barrier_log().mean_waits();
    jr.barrier_variances_s2 = job->barrier_log().variances();
    pooled_means.insert(pooled_means.end(), jr.barrier_mean_waits_s.begin(),
                        jr.barrier_mean_waits_s.end());
    pooled_vars.insert(pooled_vars.end(), jr.barrier_variances_s2.begin(),
                       jr.barrier_variances_s2.end());
    result.jobs.push_back(std::move(jr));
  }
  if (!jcts.empty()) {
    metrics::Summary s = metrics::summarize(jcts);
    result.avg_jct_s = s.mean;
    result.min_jct_s = s.min;
    result.max_jct_s = s.max;
  }
  result.barrier_mean_summary = metrics::summarize(pooled_means);
  result.barrier_variance_summary = metrics::summarize(pooled_vars);

  // Active window: steady state between the last launch and the earliest
  // completion.
  if (first_finish != sim::kTimeMax && first_finish > last_launch) {
    sim::Time span = first_finish - last_launch;
    result.active_window_begin =
        last_launch +
        sim::Time{static_cast<std::int64_t>(
            config.active_window_begin_frac *
            static_cast<double>(sim::to_nanos(span)))};
    result.active_window_end =
        last_launch +
        sim::Time{static_cast<std::int64_t>(
            config.active_window_end_frac *
            static_cast<double>(sim::to_nanos(span)))};

    std::set<net::HostId> ps_hosts;
    for (const auto& job : launcher.jobs()) {
      for (int p = 0; p < job->placement().ps_count(); ++p) {
        ps_hosts.insert(job->placement().ps_shard_host(p));
      }
    }
    double cpu_ps = 0, cpu_wk = 0, nic_in = 0, nic_out = 0;
    int n_ps = 0, n_wk = 0;
    for (net::HostId h{0}; h < net::HostId{config.num_hosts}; ++h) {
      double cpu = busy.cpu_utilization(h, result.active_window_begin,
                                        result.active_window_end,
                                        config.cores_per_host);
      if (ps_hosts.count(h)) {
        cpu_ps += cpu;
        ++n_ps;
      } else {
        cpu_wk += cpu;
        ++n_wk;
      }
      nic_in += nic.utilization(h, /*outbound=*/false,
                                result.active_window_begin,
                                result.active_window_end);
      nic_out += nic.utilization(h, /*outbound=*/true,
                                 result.active_window_begin,
                                 result.active_window_end);
    }
    result.cpu_util_ps_hosts = n_ps ? cpu_ps / n_ps : 0;
    result.cpu_util_worker_hosts = n_wk ? cpu_wk / n_wk : 0;
    result.nic_in_util = nic_in / config.num_hosts;
    result.nic_out_util = nic_out / config.num_hosts;
  }

  // Simulator-core health counters: event-queue activity and the egress
  // fast-forward hit rate land in the metrics export so a perf regression
  // in the scheduling substrate is visible from any traced run.
  if (registry) {
    const sim::EventQueue::Stats& qs = simulator.queue_stats();
    auto add = [&](const char* name, std::uint64_t v) {
      registry->counter(name, -1, -1, -1).add(static_cast<std::int64_t>(v));
    };
    add("eventq_scheduled", qs.scheduled);
    add("eventq_cancelled", qs.cancelled);
    add("eventq_popped", qs.popped);
    add("eventq_tombstones_skipped", qs.tombstones_skipped);
    add("eventq_overflow_pulls", qs.overflow_pulls);
    add("eventq_window_jumps", qs.window_jumps);
    std::uint64_t promotions = 0;
    std::uint64_t polls = 0;
    for (net::HostId h{0}; h < net::HostId{config.num_hosts}; ++h) {
      promotions += fabric.egress(h).ff_promotions();
      polls += fabric.egress(h).ff_polls();
    }
    add("egress_ff_promotions", promotions);
    add("egress_ff_polls", polls);
    if (promotions + polls > 0) {
      registry->gauge("egress_ff_hit_rate", -1, -1, -1)
          .set(static_cast<double>(promotions) /
               static_cast<double>(promotions + polls));
    }
  }

  // Artifact writing happens last. The trace CSV has been streaming since
  // the start, but it is removed unless committed here, so a run that threw
  // earlier leaves no partial files behind.
  if (tracer) {
    if (obs_sampler) obs_sampler->stop();
    std::string err;
    if (!config.obs.trace_path.empty() &&
        !write_file(config.obs.trace_path, obs::chrome_trace_json(*tracer),
                    &err)) {
      throw std::runtime_error("trace export failed: " + err);
    }
    if (trace_csv) trace_csv->commit(tracer->health());
    if (registry && !config.obs.metrics_path.empty() &&
        !write_file(config.obs.metrics_path,
                    registry->timeseries_csv(simulator.now()), &err)) {
      throw std::runtime_error("metrics export failed: " + err);
    }
    if (analyzer) {
      analyzer->set_health(tracer->health());
      obs::RunReport report = analyzer->finish();
      if (!config.obs.report_path.empty() &&
          !write_file(config.obs.report_path, obs::report_text(report),
                      &err)) {
        throw std::runtime_error("report export failed: " + err);
      }
      if (!config.obs.report_csv_path.empty() &&
          !write_file(config.obs.report_csv_path, obs::report_csv(report),
                      &err)) {
        throw std::runtime_error("report CSV export failed: " + err);
      }
      if (!config.obs.report_json_path.empty() &&
          !write_file(config.obs.report_json_path, obs::report_json(report),
                      &err)) {
        throw std::runtime_error("report JSON export failed: " + err);
      }
      if (!config.obs.report_html_path.empty()) {
        obs::HtmlOptions html_opts;
        html_opts.title = "tlsreport: " + result.policy_name;
        html_opts.label_a = result.policy_name;
        if (!write_file(config.obs.report_html_path,
                        obs::report_html(obs::report_json(report), "",
                                         html_opts),
                        &err)) {
          throw std::runtime_error("report HTML export failed: " + err);
        }
      }
    }
  }
  return result;
}

std::vector<double> normalized_jcts(const ExperimentResult& policy,
                                    const ExperimentResult& baseline) {
  std::vector<double> out;
  for (const JobResult& p : policy.jobs) {
    if (!p.finished) continue;
    auto it = std::find_if(
        baseline.jobs.begin(), baseline.jobs.end(),
        [&](const JobResult& b) { return b.job_id == p.job_id && b.finished; });
    if (it == baseline.jobs.end() || it->jct_s <= 0) continue;
    out.push_back(p.jct_s / it->jct_s);
  }
  return out;
}

double avg_normalized_jct(const ExperimentResult& policy,
                          const ExperimentResult& baseline) {
  std::vector<double> norms = normalized_jcts(policy, baseline);
  if (norms.empty()) return 0;
  double sum = 0;
  for (double v : norms) sum += v;
  return sum / static_cast<double>(norms.size());
}

ExperimentConfig with_policy(ExperimentConfig base, core::PolicyKind policy) {
  base.controller.policy = policy;
  return base;
}

metrics::Summary jct_across(const std::vector<ExperimentResult>& runs) {
  std::vector<double> v;
  v.reserve(runs.size());
  for (const ExperimentResult& r : runs) v.push_back(r.avg_jct_s);
  return metrics::summarize(v);
}

metrics::Summary normalized_across(
    const std::vector<ExperimentResult>& policy,
    const std::vector<ExperimentResult>& baseline) {
  if (policy.size() != baseline.size()) {
    throw std::invalid_argument("replica count mismatch");
  }
  std::vector<double> v;
  v.reserve(policy.size());
  for (std::size_t i = 0; i < policy.size(); ++i) {
    v.push_back(avg_normalized_jct(policy[i], baseline[i]));
  }
  return metrics::summarize(v);
}

}  // namespace tls::exp
