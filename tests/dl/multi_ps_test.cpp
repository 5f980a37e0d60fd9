// Sharded parameter-server tests: the paper's "general case where one DL
// job has multiple PSes, each PS communicates with remote workers in a
// similar way" (Section II).
#include <gtest/gtest.h>

#include "dl/job_runtime.hpp"

namespace tls::dl {
namespace {

net::FabricConfig ideal_fabric(int hosts) {
  net::FabricConfig c;
  c.num_hosts = hosts;
  c.tcp_weight_sigma = 0;
  c.protocol_overhead = 1.0;
  return c;
}

JobSpec sharded_job(int workers, int num_ps, std::int64_t target) {
  JobSpec spec;
  spec.job_id = 0;
  spec.model = zoo::resnet32_cifar10();
  spec.num_workers = workers;
  spec.num_ps = num_ps;
  spec.local_batch_size = 1;
  spec.global_step_target = target;
  spec.compute_sigma = 0;
  spec.step_overhead = tls::sim::Time{0};
  spec.ps_port = 5000;
  return spec;
}

JobPlacement sharded_placement(int workers, int num_ps) {
  JobPlacement p;
  for (int s = 0; s < num_ps; ++s) p.ps_hosts.push_back(net::HostId{s});
  for (int w = 0; w < workers; ++w) {
    p.worker_hosts.push_back(static_cast<net::HostId>(num_ps + w));
  }
  return p;
}

TEST(MultiPs, ShardPortsAndBytes) {
  JobSpec spec = sharded_job(4, 3, 12);
  EXPECT_EQ(spec.ps_shard_port(0), 5000);
  EXPECT_EQ(spec.ps_shard_port(2), 5002);
  // Shards cover the model with ceil rounding.
  EXPECT_GE(spec.shard_bytes() * 3, spec.model.update_bytes());
  EXPECT_LT(spec.shard_bytes() * 3, spec.model.update_bytes() + tls::net::Bytes{3});
}

TEST(MultiPs, PlacementAccessors) {
  JobPlacement p = sharded_placement(2, 3);
  EXPECT_EQ(p.ps_count(), 3);
  EXPECT_EQ(p.ps_shard_host(2), tls::net::HostId{2});
  JobPlacement single;
  single.ps_hosts = {tls::net::HostId{7}};
  EXPECT_EQ(single.ps_count(), 1);
  EXPECT_EQ(single.ps_shard_host(0), tls::net::HostId{7});
}

TEST(MultiPs, RunsToTargetWithTwoShards) {
  sim::Simulator s(1);
  net::Fabric fab(s, ideal_fabric(6));
  JobRuntime job(s, fab, sharded_job(3, 2, 12), sharded_placement(3, 2));
  job.start();
  s.run();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.iteration(), 4);
  EXPECT_EQ(job.global_step(), 12);
}

TEST(MultiPs, BarrierLogStillPerJob) {
  sim::Simulator s(1);
  net::Fabric fab(s, ideal_fabric(6));
  JobRuntime job(s, fab, sharded_job(3, 2, 15), sharded_placement(3, 2));
  job.start();
  s.run();
  // 5 iterations -> 4 logged barriers, all with 3 workers.
  EXPECT_EQ(job.barrier_log().size(), 4u);
  for (const auto& b : job.barrier_log().stats()) EXPECT_EQ(b.workers, 3);
}

TEST(MultiPs, ShardingSpeedsUpColocatedBroadcast) {
  // One job, heavy updates: with every shard on a different host the
  // fan-out is parallelized across egress ports, so iterations are faster
  // than the single-PS equivalent.
  auto jct_with = [](int num_ps) {
    sim::Simulator s(1);
    net::Fabric fab(s, ideal_fabric(10));
    JobSpec spec = sharded_job(5, num_ps, 5 * 4);
    spec.model = zoo::alexnet();  // 244 MB updates: network-bound
    JobPlacement p;
    for (int k = 0; k < num_ps; ++k) p.ps_hosts.push_back(net::HostId{k});
    for (int w = 0; w < 5; ++w) p.worker_hosts.push_back(net::HostId{5 + w});
    JobRuntime job(s, fab, spec, p);
    job.start();
    s.run();
    EXPECT_TRUE(job.finished());
    return job.jct();
  };
  sim::Time one = jct_with(1);
  sim::Time four = jct_with(4);
  EXPECT_LT(four, one);
  EXPECT_LT(four, one * 3 / 4);
}

TEST(MultiPs, ValidatesShardCountAgainstPlacement) {
  sim::Simulator s(1);
  net::Fabric fab(s, ideal_fabric(6));
  EXPECT_THROW(
      JobRuntime(s, fab, sharded_job(3, 2, 12), sharded_placement(3, 3)),
      std::invalid_argument);
  JobSpec bad = sharded_job(3, 0, 12);
  EXPECT_THROW(JobRuntime(s, fab, bad, sharded_placement(3, 1)),
               std::invalid_argument);
}

TEST(MultiPs, AsyncRequiresSinglePs) {
  sim::Simulator s(1);
  net::Fabric fab(s, ideal_fabric(6));
  JobSpec spec = sharded_job(3, 2, 12);
  spec.mode = TrainingMode::kAsync;
  EXPECT_THROW(JobRuntime(s, fab, spec, sharded_placement(3, 2)),
               std::invalid_argument);
}

TEST(MultiPs, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Simulator s(5);
    net::Fabric fab(s, ideal_fabric(8));
    JobSpec spec = sharded_job(4, 3, 4 * 6);
    spec.compute_sigma = 0.2;
    JobRuntime job(s, fab, spec, sharded_placement(4, 3));
    job.start();
    s.run();
    return job.jct();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace tls::dl
