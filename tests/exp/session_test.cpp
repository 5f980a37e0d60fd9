// exp::Session, the one simulation driver: its run loop stops exactly at
// the hard time limit or when the caller's predicate holds, and a stack
// assembled by hand on a Session reproduces run_experiment job for job.
#include "exp/session.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cluster/placement.hpp"
#include "workload/gridsearch.hpp"

namespace tls::exp {
namespace {

/// Four jobs whose PSes share one host on a slow link: a few seconds of
/// simulated time per handful of iterations.
ExperimentConfig small_config(std::int64_t iterations) {
  ExperimentConfig c;
  c.num_hosts = 5;
  c.workload.num_jobs = 4;
  c.workload.workers_per_job = 3;
  c.workload.local_batch_size = 1;
  c.workload.global_step_target = 3L * iterations;
  c.fabric.link_rate = net::gbps(2.5);
  c.placement = cluster::table1(1, 4);
  c.controller.policy = core::PolicyKind::kTlsRR;
  c.controller.rotation_interval = 2 * sim::kSecond;
  c.seed = 7;
  return c;
}

/// Launches `config`'s grid search on `session` the way run_experiment
/// does.
void launch(Session& session, const ExperimentConfig& config) {
  cluster::LaunchConfig launch;
  launch.stagger = config.stagger;
  session.launcher().launch_all(
      workload::grid_search_jobs(config.workload),
      cluster::assign_tasks(config.placement, config.num_hosts,
                            config.workload.workers_per_job),
      launch);
}

TEST(Session, RunStopsAtTheFirstSliceWhereDoneHolds) {
  ExperimentConfig config = small_config(100000);
  Session session(config.seed, config.num_hosts, config.fabric,
                  config.controller);
  launch(session, config);
  sim::Simulator& sim = session.sim();
  session.run(60 * sim::kSecond,
              [&sim] { return sim.now() >= 3 * sim::kSecond; });
  EXPECT_EQ(sim.now(), 3 * sim::kSecond);
}

TEST(Session, RunExperimentNeverOvershootsItsTimeLimit) {
  ExperimentConfig config = small_config(100000);
  config.time_limit = 500 * sim::kMillisecond;
  ExperimentResult r = run_experiment(config);
  EXPECT_EQ(r.sim_horizon_s, 0.5);
  EXPECT_FALSE(r.all_finished);
}

TEST(Session, HandBuiltStackReproducesRunExperiment) {
  // The benches assemble their own workloads on a Session; with the same
  // seed and jobs they must see exactly what run_experiment sees (its NIC
  // sampler only reads counters).
  ExperimentConfig config = small_config(6);
  ExperimentResult expected = run_experiment(config);
  ASSERT_TRUE(expected.all_finished);

  Session session(config.seed, config.num_hosts, config.fabric,
                  config.controller);
  launch(session, config);
  session.run(config.time_limit);
  const auto& jobs = session.launcher().jobs();
  ASSERT_EQ(jobs.size(), expected.jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(sim::to_seconds(jobs[i]->jct()), expected.jobs[i].jct_s) << i;
    EXPECT_EQ(jobs[i]->barrier_log().mean_waits(),
              expected.jobs[i].barrier_mean_waits_s)
        << i;
  }
  EXPECT_EQ(session.control().history().size(), expected.tc_commands);
  EXPECT_EQ(session.controller().rotations(), expected.rotations);
}

TEST(Session, UntracedSessionHasNoRegistryAndWritesNothing) {
  ExperimentConfig config = small_config(2);
  Session session(config.seed, config.num_hosts, config.fabric,
                  config.controller);
  EXPECT_EQ(session.registry(), nullptr);
  EXPECT_EQ(session.sim().tracer(), nullptr);
  launch(session, config);
  session.run(config.time_limit);
  EXPECT_TRUE(session.launcher().all_finished());
  session.write_artifacts("untraced");
}

}  // namespace
}  // namespace tls::exp
