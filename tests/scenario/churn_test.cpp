// Churn leak checks: a dynamic cluster admits, departs, and re-admits
// jobs for hours, so every per-job resource — scheduler load accounting,
// controller band maps, fabric flows, egress backlogs, PS port slots —
// must return to zero when a job leaves, whether it completed or was
// evicted mid-flight.
#include <gtest/gtest.h>

#include "cluster/launcher.hpp"
#include "cluster/scheduler.hpp"
#include "dl/model.hpp"
#include "scenario/engine.hpp"
#include "scenario/export.hpp"
#include "tensorlights/controller.hpp"

namespace tls::scenario {
namespace {

class ChurnTest : public ::testing::Test {
 protected:
  static constexpr int kHosts = 4;

  ChurnTest()
      : fabric_(sim_, fabric_config()),
        control_(fabric_),
        controller_(sim_, control_, controller_config()),
        scheduler_(kHosts, cluster::SchedulerPolicy::kPsAware),
        launcher_(sim_, fabric_) {
    launcher_.add_listener(&controller_);
  }

  static net::FabricConfig fabric_config() {
    net::FabricConfig c;
    c.num_hosts = kHosts;
    return c;
  }

  static core::ControllerConfig controller_config() {
    core::ControllerConfig c;
    c.policy = core::PolicyKind::kTlsOne;  // no rotation timer: queue drains
    return c;
  }

  dl::JobSpec spec(std::int32_t job_id, std::int64_t iterations) {
    dl::JobSpec s;
    s.job_id = job_id;
    s.model = dl::zoo::resnet32_cifar10();
    s.num_workers = 2;
    s.local_batch_size = 1;
    s.global_step_target = iterations * s.num_workers;
    return s;
  }

  /// try_place + admit; scheduler accounting is released on departure,
  /// exactly as the scenario engine wires it.
  dl::JobRuntime& admit(dl::JobSpec s) {
    cluster::Admission a = scheduler_.try_place(s);
    EXPECT_EQ(a.outcome, cluster::AdmissionOutcome::kPlaced);
    return launcher_.admit(std::move(s), std::move(a.placement),
                           [this](const dl::JobRuntime& j) {
                             scheduler_.remove(j.spec(), j.placement());
                           });
  }

  void run_until_idle() { sim_.run(sim_.now() + 3600 * sim::kSecond); }

  void expect_no_residue() {
    EXPECT_EQ(fabric_.active_flows(), 0u);
    EXPECT_EQ(controller_.total_managed_jobs(), 0);
    for (net::HostId h{0}; h < net::HostId{kHosts}; ++h) {
      EXPECT_EQ(scheduler_.task_count(h), 0) << "host " << h.idx();
      EXPECT_EQ(scheduler_.ps_count(h), 0) << "host " << h.idx();
      EXPECT_EQ(controller_.managed_job_count(h), 0) << "host " << h.idx();
      const net::EgressPort& port = fabric_.egress(h);
      EXPECT_FALSE(port.busy()) << "host " << h.idx();
      EXPECT_EQ(port.qdisc().backlog_chunks(), 0u) << "host " << h.idx();
      EXPECT_EQ(port.qdisc().backlog_bytes(), net::Bytes{0}) << "host " << h.idx();
    }
  }

  sim::Simulator sim_{11};
  net::Fabric fabric_;
  tc::TrafficControl control_;
  core::Controller controller_;
  cluster::OnlineScheduler scheduler_;
  cluster::Launcher launcher_;
};

TEST_F(ChurnTest, AdmitDepartReadmitLeavesNoResidue) {
  for (std::int32_t round = 0; round < 3; ++round) {
    dl::JobRuntime& job = admit(spec(round, 3));
    run_until_idle();
    EXPECT_TRUE(job.finished());
    EXPECT_FALSE(job.evicted());
    expect_no_residue();
  }
  EXPECT_EQ(launcher_.finished_count(), 3);
}

TEST_F(ChurnTest, MidFlightEvictionDrainsEveryByte) {
  // A job that would run for a very long time, cut down after one second:
  // in-flight flows must still deliver (or cancel) completely, leaving no
  // backlog stranded in any qdisc and no flow alive in the fabric.
  dl::JobRuntime& job = admit(spec(0, 1'000'000));
  sim_.run(1 * sim::kSecond);
  EXPECT_FALSE(job.finished());
  launcher_.evict(job);
  run_until_idle();
  EXPECT_TRUE(job.finished());
  EXPECT_TRUE(job.evicted());
  EXPECT_GT(job.iteration(), 0);
  expect_no_residue();
}

TEST_F(ChurnTest, EvictionIsNoOpOnFinishedJob) {
  dl::JobRuntime& job = admit(spec(0, 2));
  run_until_idle();
  ASSERT_TRUE(job.finished());
  launcher_.evict(job);
  run_until_idle();
  EXPECT_FALSE(job.evicted());
  EXPECT_EQ(launcher_.finished_count(), 1);
}

TEST_F(ChurnTest, PortSlotsAreRecycledAcrossGenerations) {
  dl::JobRuntime& a = admit(spec(0, 2));
  std::uint16_t first_port = a.spec().ps_port;
  run_until_idle();
  ASSERT_TRUE(a.finished());
  // The departed job's slot is the lowest free one, so the next admit
  // reuses it — churn never walks off the 16-bit port space.
  dl::JobRuntime& b = admit(spec(1, 2));
  EXPECT_EQ(b.spec().ps_port, first_port);
  run_until_idle();
  expect_no_residue();
}

TEST_F(ChurnTest, ConcurrentJobsDepartIndependently) {
  dl::JobRuntime& lhs = admit(spec(0, 1'000'000));
  dl::JobRuntime& rhs = admit(spec(1, 3));
  sim_.run(500 * sim::kMillisecond);
  launcher_.evict(lhs);
  run_until_idle();
  EXPECT_TRUE(lhs.evicted());
  EXPECT_TRUE(rhs.finished());
  EXPECT_FALSE(rhs.evicted());
  expect_no_residue();
}

// Engine-level churn: a heavy-eviction queue-admission scenario stays
// deterministic and drains its whole trace.
TEST(ChurnScenario, EvictionChurnIsDeterministicAndDrains) {
  Config c;
  c.num_hosts = 4;
  c.cores_per_host = 4;
  c.admission = cluster::AdmissionPolicy::kQueue;
  c.ps_band_limit = 1;
  c.controller.policy = core::PolicyKind::kTlsRR;
  c.controller.rotation_interval = 2 * sim::kSecond;
  c.sample_period = sim::Time{0};
  c.trace.num_jobs = 10;
  c.trace.mean_interarrival_s = 1;
  c.trace.min_workers = 2;
  c.trace.max_workers = 3;
  c.trace.min_iterations = 3;
  c.trace.max_iterations = 6;
  c.trace.local_batch_size = 1;
  c.trace.evict_fraction = 0.5;
  c.trace.evict_min_s = 1;
  c.trace.evict_max_s = 4;
  c.trace.seed = 21;
  c.seed = 13;

  Result a = run_scenario(c);
  Result b = run_scenario(c);
  EXPECT_EQ(scenario_json(a), scenario_json(b));
  EXPECT_TRUE(a.trace_drained);
  EXPECT_EQ(a.completed + a.evicted + a.rejected + a.unfinished, 10u);
  EXPECT_EQ(a.rejected, 0u);
  EXPECT_EQ(a.unfinished, 0u);
}

}  // namespace
}  // namespace tls::scenario
