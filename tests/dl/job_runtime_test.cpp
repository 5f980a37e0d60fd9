#include "dl/job_runtime.hpp"

#include <gtest/gtest.h>

namespace tls::dl {
namespace {

net::FabricConfig small_fabric(int hosts) {
  net::FabricConfig c;
  c.num_hosts = hosts;
  c.tcp_weight_sigma = 0;
  c.protocol_overhead = 1.0;
  return c;
}

JobSpec small_job(int workers, std::int64_t target,
                  TrainingMode mode = TrainingMode::kSync) {
  JobSpec spec;
  spec.job_id = 0;
  spec.model = zoo::resnet32_cifar10();
  spec.num_workers = workers;
  spec.local_batch_size = 1;
  spec.global_step_target = target;
  spec.mode = mode;
  spec.compute_sigma = 0;  // deterministic
  spec.step_overhead = tls::sim::Time{0};
  spec.ps_port = 5000;
  return spec;
}

JobPlacement star_placement(int workers) {
  JobPlacement p;
  p.ps_hosts = {tls::net::HostId{0}};
  for (int w = 0; w < workers; ++w) p.worker_hosts.push_back(net::HostId{1 + w});
  return p;
}

TEST(JobRuntime, RunsToGlobalStepTarget) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(3));
  JobRuntime job(s, fab, small_job(2, 10), star_placement(2));
  job.start();
  s.run();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.global_step(), 10);
  EXPECT_EQ(job.iteration(), 5);
  EXPECT_GT(job.jct(), tls::sim::Time{0});
}

TEST(JobRuntime, TargetNotMultipleOfWorkersOvershoots) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(4));
  JobRuntime job(s, fab, small_job(3, 10), star_placement(3));
  job.start();
  s.run();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.global_step(), 12);  // 4 iterations x 3 workers
  EXPECT_EQ(job.iteration(), 4);
}

TEST(JobRuntime, BarrierLogRecordsAllButLastBarrier) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(3));
  JobRuntime job(s, fab, small_job(2, 12), star_placement(2));
  job.start();
  s.run();
  // 6 iterations; the final barrier has no subsequent model update, so 5
  // barriers are logged.
  EXPECT_EQ(job.barrier_log().size(), 5u);
  for (const auto& b : job.barrier_log().stats()) EXPECT_EQ(b.workers, 2);
}

TEST(JobRuntime, DeterministicComputeGivesLowVariance) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(3));
  JobRuntime job(s, fab, small_job(2, 10), star_placement(2));
  job.start();
  s.run();
  for (const auto& b : job.barrier_log().stats()) {
    EXPECT_LT(b.var_wait_s2, 1e-4);  // symmetric workers, no noise
  }
}

TEST(JobRuntime, IterationTimeMatchesComputePlusTransfers) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(2));
  JobSpec spec = small_job(1, 4);
  spec.ps_aggregate_per_worker = tls::sim::Time{0};
  JobRuntime job(s, fab, spec, star_placement(1));
  job.start();
  s.run();
  // 4 iterations of (compute 150 ms + 2 transfers of ~1.5 ms each).
  double compute_s = sim::to_seconds(spec.base_step_time());
  double transfer_s = net::seconds_for(2.0 * 1'868'776, net::gbps(10));
  double expect = 4 * (compute_s + transfer_s);
  EXPECT_NEAR(sim::to_seconds(job.jct()), expect, expect * 0.1);
}

TEST(JobRuntime, AsyncModeReachesTarget) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(3));
  JobRuntime job(s, fab, small_job(2, 10, TrainingMode::kAsync),
                 star_placement(2));
  job.start();
  s.run();
  EXPECT_TRUE(job.finished());
  EXPECT_GE(job.global_step(), 10);
}

TEST(JobRuntime, AsyncWorkersProgressIndependently) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(3));
  JobSpec spec = small_job(2, 40, TrainingMode::kAsync);
  spec.compute_sigma = 0.5;  // strong noise: sync would force lockstep
  JobRuntime job(s, fab, spec, star_placement(2));
  job.start();
  s.run();
  EXPECT_TRUE(job.finished());
  // Async barrier log records per-worker waits as singletons.
  for (const auto& b : job.barrier_log().stats()) EXPECT_EQ(b.workers, 1);
}

TEST(JobRuntime, BusySinkSeesWorkerAndPsIntervals) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(3));
  std::vector<net::HostId> hosts;
  JobRuntime job(
      s, fab, small_job(2, 4), star_placement(2), {},
      [&](net::HostId h, sim::Time b, sim::Time e) {
        EXPECT_LE(b, e);
        hosts.push_back(h);
      });
  job.start();
  s.run();
  bool saw_worker = false, saw_ps = false;
  for (net::HostId h : hosts) {
    if (h == tls::net::HostId{0}) saw_ps = true;
    if (h == tls::net::HostId{1 || h == tls::net::HostId{2}}) saw_worker = true;
  }
  EXPECT_TRUE(saw_worker);
  EXPECT_TRUE(saw_ps);
  EXPECT_GT(job.ps_busy(), tls::sim::Time{0});
  EXPECT_GT(job.worker_busy()[0], tls::sim::Time{0});
}

TEST(JobRuntime, OnFinishFiresOnce) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(3));
  int finishes = 0;
  JobRuntime job(s, fab, small_job(2, 4), star_placement(2),
                 [&] { ++finishes; });
  job.start();
  s.run();
  EXPECT_EQ(finishes, 1);
}

TEST(JobRuntime, ValidatesConstruction) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(3));
  JobSpec bad = small_job(2, 4);
  bad.num_workers = 0;
  EXPECT_THROW(JobRuntime(s, fab, bad, star_placement(0)), std::invalid_argument);
  bad = small_job(2, 4);
  EXPECT_THROW(JobRuntime(s, fab, bad, star_placement(3)),  // count mismatch
               std::invalid_argument);
  bad = small_job(2, 0);
  EXPECT_THROW(JobRuntime(s, fab, bad, star_placement(2)), std::invalid_argument);
}

TEST(JobRuntime, ComputeNoiseChangesWithSeedButNotWithJobId) {
  auto run_with = [](std::uint64_t seed) {
    sim::Simulator s(seed);
    net::Fabric fab(s, small_fabric(3));
    JobSpec spec = small_job(2, 10);
    spec.compute_sigma = 0.2;
    JobRuntime job(s, fab, spec, star_placement(2));
    job.start();
    s.run();
    return job.jct();
  };
  EXPECT_EQ(run_with(1), run_with(1));
  EXPECT_NE(run_with(1), run_with(2));
}

TEST(JobRuntime, PlacementWithoutPsHostRejected) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(3));
  JobPlacement p;
  p.worker_hosts = {tls::net::HostId{1}, tls::net::HostId{2}};
  EXPECT_THROW(JobRuntime(s, fab, small_job(2, 4), p), std::invalid_argument);
}

TEST(JobRuntime, SpreadWorkersOverFewerHostsStillWorks) {
  // Two workers on the same host (oversubscribed cluster).
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(2));
  JobPlacement p;
  p.ps_hosts = {tls::net::HostId{0}};
  p.worker_hosts = {tls::net::HostId{1}, tls::net::HostId{1}};
  JobRuntime job(s, fab, small_job(2, 4), p);
  job.start();
  s.run();
  EXPECT_TRUE(job.finished());
}

TEST(JobRuntime, RequestStopEvictsMidFlight) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(3));
  int finishes = 0;
  JobRuntime job(s, fab, small_job(2, 1'000'000), star_placement(2),
                 [&] { ++finishes; });
  job.start();
  s.run(s.now() + 1 * sim::kSecond);
  ASSERT_FALSE(job.finished());
  job.request_stop();
  EXPECT_TRUE(job.finished());
  EXPECT_TRUE(job.evicted());
  EXPECT_EQ(finishes, 1);
  EXPECT_LT(job.iteration(), 1'000'000);
  EXPECT_GT(job.jct(), sim::Time{0});
}

TEST(JobRuntime, RequestStopIsNoOpOnFinishedJob) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(3));
  int finishes = 0;
  JobRuntime job(s, fab, small_job(2, 4), star_placement(2),
                 [&] { ++finishes; });
  job.start();
  s.run();
  ASSERT_TRUE(job.finished());
  job.request_stop();  // must not re-fire on_finish or flip evicted
  EXPECT_FALSE(job.evicted());
  EXPECT_EQ(finishes, 1);
}

TEST(JobRuntime, RequestStopBeforeStartGivesZeroLengthLifetime) {
  // A queued job can be cancelled before its staggered start.
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(3));
  JobRuntime job(s, fab, small_job(2, 4), star_placement(2));
  job.request_stop();
  EXPECT_TRUE(job.finished());
  EXPECT_TRUE(job.evicted());
  EXPECT_EQ(job.jct(), sim::Time{0});
  EXPECT_EQ(job.iteration(), 0);
}

TEST(JobRuntime, CompletedJobIsNotEvicted) {
  sim::Simulator s(1);
  net::Fabric fab(s, small_fabric(3));
  JobRuntime job(s, fab, small_job(2, 4), star_placement(2));
  job.start();
  s.run();
  EXPECT_TRUE(job.finished());
  EXPECT_FALSE(job.evicted());
}

}  // namespace
}  // namespace tls::dl
