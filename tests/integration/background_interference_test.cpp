// Interference properties: TensorLights' benefit must survive background
// cross-traffic, and the htb default class must keep that cross-traffic
// from starving behind prioritized model updates.
#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "runtime/runner.hpp"

namespace tls::exp {
namespace {

ExperimentConfig noisy_config(core::PolicyKind policy) {
  ExperimentConfig c;
  c.num_hosts = 8;
  c.workload.num_jobs = 8;
  c.workload.workers_per_job = 7;
  c.workload.local_batch_size = 1;
  c.workload.step_overhead = tls::sim::Time{0};
  c.workload.global_step_target = 7L * 12;
  c.fabric.link_rate = net::gbps(2.5);
  c.placement = cluster::table1(1, 8);
  c.controller.policy = policy;
  c.controller.rotation_interval = 2 * sim::kSecond;
  c.background = true;
  c.background_config.flows_per_second = 4;
  c.background_config.mean_bytes = 4 * net::kMiB;
  c.seed = 5;
  return c;
}

TEST(BackgroundInterference, JobsFinishWithCrossTraffic) {
  ExperimentResult r = run_experiment(noisy_config(core::PolicyKind::kTlsRR));
  EXPECT_TRUE(r.all_finished);
  EXPECT_GT(r.background_flows, 0u);
  EXPECT_GT(r.background_mean_fct_s, 0);
}

TEST(BackgroundInterference, TlsStillBeatsFifoUnderNoise) {
  ExperimentResult fifo = run_experiment(noisy_config(core::PolicyKind::kFifo));
  ExperimentResult tls = run_experiment(noisy_config(core::PolicyKind::kTlsOne));
  EXPECT_LT(avg_normalized_jct(tls, fifo), 1.0);
}

TEST(BackgroundInterference, DefaultClassPreventsStarvation) {
  // Background flows ride the htb default class (assured-rate share), so
  // their mean completion time under TensorLights must stay within a small
  // factor of the FIFO baseline's, not collapse to starvation.
  ExperimentResult fifo = run_experiment(noisy_config(core::PolicyKind::kFifo));
  ExperimentResult tls = run_experiment(noisy_config(core::PolicyKind::kTlsOne));
  ASSERT_GT(fifo.background_mean_fct_s, 0);
  ASSERT_GT(tls.background_mean_fct_s, 0);
  EXPECT_LT(tls.background_mean_fct_s, fifo.background_mean_fct_s * 5.0);
}

TEST(Replication, SeedsVaryResultsButNotConclusion) {
  ExperimentConfig base = noisy_config(core::PolicyKind::kFifo);
  base.background = false;
  using runtime::RunPlan;
  auto fifo = runtime::run_plan(RunPlan::replicated(base, 3)).results;
  auto tls = runtime::run_plan(
      RunPlan::replicated(with_policy(base, core::PolicyKind::kTlsOne), 3))
      .results;
  metrics::Summary norm = normalized_across(tls, fifo);
  EXPECT_EQ(norm.count, 3u);
  EXPECT_LT(norm.max, 1.0);  // every seed agrees TLs wins here
  metrics::Summary jct = jct_across(fifo);
  EXPECT_GT(jct.stddev, 0);  // seeds actually differ
}

TEST(Replication, Validation) {
  std::vector<ExperimentResult> two(2), three(3);
  EXPECT_THROW(normalized_across(two, three), std::invalid_argument);
}

}  // namespace
}  // namespace tls::exp
