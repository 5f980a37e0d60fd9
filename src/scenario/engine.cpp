#include "scenario/engine.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>

#include "dl/model.hpp"
#include "exp/session.hpp"
#include "obs/export.hpp"
#include "obs/metrics_registry.hpp"

namespace tls::scenario {

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kCompleted: return "completed";
    case JobStatus::kEvicted: return "evicted";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kUnfinished: return "unfinished";
  }
  return "?";
}

namespace {

int effective_band_limit(const Config& config) {
  // -1 follows the controller's band budget so "one PS job per distinct
  // band" is the out-of-the-box exhaustion point; the limit applies under
  // FIFO too, so admission behaviour is identical across the policies
  // being compared.
  if (config.ps_band_limit < 0) return config.controller.max_bands;
  return config.ps_band_limit;
}

/// One scenario simulation: the churn bookkeeping (pending queue, per-job
/// outcomes, peaks) on top of one exp::Session.
class Engine {
 public:
  explicit Engine(const Config& config)
      : config_(config),
        trace_(config.replay.jobs.empty() ? generate_trace(config.trace)
                                          : config.replay),
        session_(config.seed, config.num_hosts, config.fabric,
                 config.controller),
        scheduler_(config.num_hosts, config.scheduler, config.admission,
                   effective_band_limit(config)) {
    if (config.num_hosts < 2) throw std::invalid_argument("num_hosts < 2");
    if (config.cores_per_host < 1) {
      throw std::invalid_argument("cores_per_host < 1");
    }
    for (const TraceJob& job : trace_.jobs) {
      if (!dl::zoo::by_name(job.model)) {
        throw std::invalid_argument("unknown model in trace: " + job.model);
      }
    }
  }

  Result run() {
    outcomes_.resize(trace_.jobs.size());
    for (std::size_t i = 0; i < trace_.jobs.size(); ++i) {
      const TraceJob& tj = trace_.jobs[i];
      JobOutcome& o = outcomes_[i];
      o.job_id = tj.job_id;
      o.model = tj.model;
      o.num_workers = clamped_workers(tj);
      o.iterations_target = tj.iterations;
      o.arrival_s = sim::to_seconds(tj.arrival);
      sim_.schedule_at(tj.arrival, [this, i] { on_arrival(i); });
    }

    std::unique_ptr<sim::PeriodicTimer> sampler;
    if (config_.sample_period > sim::Time{0}) {
      sampler = std::make_unique<sim::PeriodicTimer>(
          sim_, config_.sample_period, [this] { sample(); });
      sampler->start();
    }

    session_.run(config_.time_limit,
                 [this] { return resolved_ == trace_.jobs.size(); });
    if (sampler) sampler->stop();
    return finalize();
  }

 private:
  int clamped_workers(const TraceJob& tj) const {
    // A trace is cluster-agnostic; a job asking for more workers than the
    // cluster has hosts is scaled down to one worker per non-PS host.
    return std::max(1, std::min(tj.num_workers, config_.num_hosts - 1));
  }

  dl::JobSpec spec_for(const TraceJob& tj) const {
    dl::JobSpec spec;
    spec.job_id = tj.job_id;
    spec.model = *dl::zoo::by_name(tj.model);
    spec.num_workers = clamped_workers(tj);
    spec.local_batch_size = tj.local_batch_size;
    spec.global_step_target = tj.iterations * spec.num_workers;
    return spec;
  }

  void on_arrival(std::size_t index) {
    dl::JobSpec spec = spec_for(trace_.jobs[index]);
    cluster::Admission admission = scheduler_.try_place(spec);
    peak_coloc_ = std::max(peak_coloc_, admission.ps_colocation);
    switch (admission.outcome) {
      case cluster::AdmissionOutcome::kPlaced:
        counter("scenario_admitted").add(1);
        start_job(index, std::move(spec), std::move(admission.placement));
        break;
      case cluster::AdmissionOutcome::kQueued:
        counter("scenario_queued").add(1);
        pending_.push_back(index);
        break;
      case cluster::AdmissionOutcome::kRejected: {
        counter("scenario_rejected").add(1);
        JobOutcome& o = outcomes_[index];
        o.status = JobStatus::kRejected;
        o.finish_s = sim::to_seconds(sim_.now());
        ++resolved_;
        break;
      }
    }
  }

  void start_job(std::size_t index, dl::JobSpec spec,
                 dl::JobPlacement placement) {
    const TraceJob& tj = trace_.jobs[index];
    JobOutcome& o = outcomes_[index];
    dl::JobRuntime& job = session_.launcher().admit(
        std::move(spec), std::move(placement),
        [this, index](const dl::JobRuntime& j) { on_departure(index, j); });
    o.admit_s = sim::to_seconds(sim_.now());
    o.queue_wait_s = o.admit_s - o.arrival_s;
    o.band_at_admit = session_.controller().band_of(o.job_id);
    registry_.histogram("scenario_queue_wait_ns", -1, -1, -1)
        .record(sim::to_nanos(sim_.now() - tj.arrival));
    ++active_;
    peak_active_ = std::max(peak_active_, active_);
    if (tj.lifetime > sim::Time{0}) {
      sim_.schedule_after(tj.lifetime, [this, job_ptr = &job] {
        if (!job_ptr->finished()) session_.launcher().evict(*job_ptr);
      });
    }
  }

  void on_departure(std::size_t index, const dl::JobRuntime& job) {
    JobOutcome& o = outcomes_[index];
    o.finish_s = sim::to_seconds(sim_.now());
    o.jct_s = sim::to_seconds(job.jct());
    o.iterations_done = job.iteration();
    o.status = job.evicted() ? JobStatus::kEvicted : JobStatus::kCompleted;
    counter(job.evicted() ? "scenario_evicted" : "scenario_completed").add(1);
    if (!job.evicted()) {
      registry_.histogram("scenario_jct_ns", -1, -1, -1)
          .record(sim::to_nanos(job.jct()));
    }
    scheduler_.remove(job.spec(), job.placement());
    --active_;
    ++resolved_;
    drain_pending();
  }

  /// FIFO retry of jobs the admission policy held back; a departure may
  /// free several band slots at once, so keep admitting until the head
  /// of the queue no longer fits.
  void drain_pending() {
    while (!pending_.empty()) {
      std::size_t index = pending_.front();
      dl::JobSpec spec = spec_for(trace_.jobs[index]);
      cluster::Admission admission = scheduler_.try_place(spec);
      if (admission.outcome != cluster::AdmissionOutcome::kPlaced) break;
      pending_.pop_front();
      peak_coloc_ = std::max(peak_coloc_, admission.ps_colocation);
      start_job(index, std::move(spec), std::move(admission.placement));
    }
  }

  void sample() {
    sim::Time now = sim_.now();
    registry_.record(now, "scenario_active_jobs", -1, -1, -1,
                     static_cast<double>(active_));
    registry_.record(now, "scenario_pending_jobs", -1, -1, -1,
                     static_cast<double>(pending_.size()));
    for (net::HostId h{0}; h < net::HostId{config_.num_hosts}; ++h) {
      registry_.record(now, "scenario_ps_jobs", h.idx(), -1, -1,
                       static_cast<double>(scheduler_.ps_count(h)));
      registry_.record(now, "scenario_band_jobs", h.idx(), -1, -1,
                       static_cast<double>(
                           session_.controller().managed_job_count(h)));
    }
  }

  obs::Counter& counter(const char* name) {
    return registry_.counter(name, -1, -1, -1);
  }

  Result finalize() {
    Result result;
    result.policy_name = core::to_string(config_.controller.policy);
    result.admission_name = cluster::to_string(config_.admission);
    result.seed = config_.seed;
    result.trace_seed = config_.replay.jobs.empty() ? config_.trace.seed : 0;
    result.num_hosts = config_.num_hosts;
    result.peak_active_jobs = peak_active_;
    result.peak_ps_colocation = peak_coloc_;
    result.rotations = session_.controller().rotations();
    result.tc_commands = session_.control().history().size();
    result.sim_events = sim_.dispatched();
    result.horizon_s = sim::to_seconds(sim_.now());
    result.trace_drained = resolved_ == trace_.jobs.size();

    std::vector<double> jcts;
    std::vector<double> waits;
    for (JobOutcome& o : outcomes_) {
      switch (o.status) {
        case JobStatus::kCompleted:
          ++result.completed;
          jcts.push_back(o.jct_s);
          break;
        case JobStatus::kEvicted: ++result.evicted; break;
        case JobStatus::kRejected: ++result.rejected; break;
        case JobStatus::kUnfinished: ++result.unfinished; break;
      }
      if (o.admit_s >= 0) waits.push_back(o.queue_wait_s);
    }
    result.jct = metrics::summarize(jcts);
    result.queue_wait = metrics::summarize(waits);

    double cpu = 0;
    for (net::HostId h{0}; h < net::HostId{config_.num_hosts}; ++h) {
      cpu += session_.busy().cpu_utilization(h, sim::Time{0}, sim_.now(),
                                             config_.cores_per_host);
    }
    result.cluster_cpu_util = cpu / config_.num_hosts;

    registry_.gauge("scenario_peak_active_jobs", -1, -1, -1)
        .set(peak_active_);
    registry_.gauge("scenario_peak_ps_colocation", -1, -1, -1)
        .set(peak_coloc_);
    registry_.gauge("scenario_cluster_cpu_util", -1, -1, -1)
        .set(result.cluster_cpu_util);
    if (!config_.metrics_path.empty()) {
      std::string error;
      if (!obs::write_file(config_.metrics_path,
                           registry_.timeseries_csv(sim_.now()), &error)) {
        throw std::runtime_error("scenario metrics export failed: " + error);
      }
    }
    result.jobs = std::move(outcomes_);
    return result;
  }

  const Config& config_;
  Trace trace_;
  exp::Session session_;
  sim::Simulator& sim_ = session_.sim();
  obs::Registry registry_;
  cluster::OnlineScheduler scheduler_;
  std::deque<std::size_t> pending_;
  std::vector<JobOutcome> outcomes_;
  int active_ = 0;
  int peak_active_ = 0;
  int peak_coloc_ = 0;
  std::size_t resolved_ = 0;
};

}  // namespace

Result run_scenario(const Config& config) {
  Engine engine(config);
  return engine.run();
}

}  // namespace tls::scenario
