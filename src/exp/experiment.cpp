#include "exp/experiment.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "exp/session.hpp"

namespace tls::exp {

ExperimentResult run_experiment(const ExperimentConfig& config) {
  if (config.placement.total_jobs() != config.workload.num_jobs) {
    throw std::invalid_argument("placement job count != workload job count");
  }

  Session session(config.seed, config.num_hosts, config.fabric,
                  config.controller, config.obs);
  sim::Simulator& simulator = session.sim();
  net::Fabric& fabric = session.fabric();
  cluster::Launcher& launcher = session.launcher();
  metrics::NicSampler nic(simulator, fabric, config.nic_sample_period,
                          session.registry());

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
    launcher.set_transmission_gate(coordinator.get());
  }

  std::vector<dl::JobSpec> specs = workload::grid_search_jobs(config.workload);
  std::vector<dl::JobPlacement> placements = cluster::assign_tasks(
      config.placement, config.num_hosts, config.workload.workers_per_job,
      config.workload.ps_per_job);
  cluster::LaunchConfig launch;
  launch.stagger = config.stagger;
  launcher.launch_all(std::move(specs), std::move(placements), launch);
  session.run(config.time_limit);

  ExperimentResult result;
  result.policy_name = to_string(config.controller.policy);
  result.sim_events = simulator.dispatched();
  result.sim_horizon_s = sim::to_seconds(simulator.now());
  result.rotations = session.controller().rotations();
  result.tc_commands = session.control().history().size();
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
      double cpu = session.busy().cpu_utilization(
          h, result.active_window_begin, result.active_window_end,
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

  session.write_artifacts(result.policy_name);
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
