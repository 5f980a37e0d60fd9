// Reproducibility contract of the whole pipeline: the same seeded
// experiment, run through a freshly constructed simulator each time, must
// export byte-identical metrics. Every figure and table in the paper
// reproduction rests on this; the determinism lint (tools/tls_lint) and the
// TLS_CHECK invariant layer exist to keep it true, and this test is the
// end-to-end witness.
#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "runtime/runner.hpp"
#include "exp/export.hpp"

namespace tls::exp {
namespace {

/// Small contended configuration (PSes colocated, slow link) so scheduling
/// decisions, tc reconfigurations, and RNG draws all genuinely interleave.
ExperimentConfig small_contended(core::PolicyKind policy) {
  ExperimentConfig c;
  c.num_hosts = 6;
  c.workload.num_jobs = 6;
  c.workload.workers_per_job = 5;
  c.workload.local_batch_size = 1;
  c.workload.step_overhead = tls::sim::Time{0};
  c.workload.global_step_target = 5L * 8;
  c.fabric.link_rate = net::gbps(2.5);
  c.placement = cluster::table1(1, 6);
  c.controller.policy = policy;
  c.controller.rotation_interval = 2 * sim::kSecond;
  c.seed = 17;
  return c;
}

/// Every export surface in one string, so a mismatch anywhere in the
/// pipeline — job metrics, barrier series, headline JSON — is caught.
std::string full_export(const ExperimentResult& r) {
  return jobs_csv(r) + "\n" + barriers_csv(r) + "\n" + to_json(r);
}

TEST(Determinism, SameSeedExportsAreByteIdentical) {
  ExperimentConfig config = small_contended(core::PolicyKind::kTlsOne);
  // Each run_experiment() call constructs a brand-new Simulator, fabric,
  // and coordinator, so agreement here means no state leaks across runs and
  // nothing nondeterministic feeds the metrics.
  ExperimentResult first = run_experiment(config);
  ExperimentResult second = run_experiment(config);
  EXPECT_EQ(full_export(first), full_export(second));
  EXPECT_EQ(first.sim_events, second.sim_events);
  EXPECT_EQ(first.tc_commands, second.tc_commands);
}

TEST(Determinism, EveryPolicyIsReproducible) {
  for (core::PolicyKind policy :
       {core::PolicyKind::kFifo, core::PolicyKind::kTlsOne,
        core::PolicyKind::kTlsRR}) {
    ExperimentConfig config = small_contended(policy);
    ExperimentResult first = run_experiment(config);
    ExperimentResult second = run_experiment(config);
    EXPECT_EQ(full_export(first), full_export(second))
        << "policy " << first.policy_name << " is not reproducible";
  }
}

TEST(Determinism, ReplicatedRunsMatchDirectRuns) {
  // RunPlan::replicated seeds replicas as seed, seed+1, ... — each replica
  // must agree byte-for-byte with a direct run at that seed, so replicated
  // figures can be regenerated piecemeal.
  ExperimentConfig config = small_contended(core::PolicyKind::kTlsRR);
  std::vector<ExperimentResult> replicas =
      runtime::run_plan(runtime::RunPlan::replicated(config, 2)).results;
  ASSERT_EQ(replicas.size(), 2u);
  ExperimentConfig direct = config;
  for (int i = 0; i < 2; ++i) {
    direct.seed = config.seed + static_cast<std::uint64_t>(i);
    EXPECT_EQ(full_export(run_experiment(direct)),
              full_export(replicas[static_cast<std::size_t>(i)]))
        << "replica " << i << " diverged from a direct run at its seed";
  }
}

TEST(Determinism, BackgroundTrafficIsSeedStable) {
  // Poisson cross-traffic draws from forked Rng streams; two runs must
  // sample identical flow arrivals.
  ExperimentConfig config = small_contended(core::PolicyKind::kTlsOne);
  config.background = true;
  ExperimentResult first = run_experiment(config);
  ExperimentResult second = run_experiment(config);
  EXPECT_EQ(first.background_flows, second.background_flows);
  EXPECT_DOUBLE_EQ(first.background_mean_fct_s, second.background_mean_fct_s);
  EXPECT_EQ(full_export(first), full_export(second));
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check on the witness itself: if exports were insensitive to the
  // seed, the byte-identical assertions above would be vacuous.
  ExperimentConfig config = small_contended(core::PolicyKind::kTlsOne);
  ExperimentResult a = run_experiment(config);
  config.seed = 18;
  ExperimentResult b = run_experiment(config);
  EXPECT_NE(full_export(a), full_export(b));
}

}  // namespace
}  // namespace tls::exp
