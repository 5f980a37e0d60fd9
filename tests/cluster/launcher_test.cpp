#include "cluster/launcher.hpp"

#include <gtest/gtest.h>

#include <set>

#include "cluster/placement.hpp"
#include "workload/gridsearch.hpp"

namespace tls::cluster {
namespace {

struct Recorder : JobEventListener {
  std::vector<std::pair<std::int32_t, sim::Time>> arrivals;
  std::vector<std::pair<std::int32_t, sim::Time>> departures;
  sim::Simulator* sim = nullptr;

  void on_job_arrival(const dl::JobSpec& spec, const dl::JobPlacement&) override {
    arrivals.emplace_back(spec.job_id, sim->now());
  }
  void on_job_departure(const dl::JobSpec& spec, const dl::JobPlacement&) override {
    departures.emplace_back(spec.job_id, sim->now());
  }
};

class LauncherTest : public ::testing::Test {
 protected:
  LauncherTest() : fabric_(sim_, make_fabric()), launcher_(sim_, fabric_) {
    recorder_.sim = &sim_;
  }

  static net::FabricConfig make_fabric() {
    net::FabricConfig c;
    c.num_hosts = 4;
    return c;
  }

  std::vector<dl::JobSpec> jobs(int n, std::int64_t target = 6) {
    workload::GridSearchConfig w;
    w.num_jobs = n;
    w.workers_per_job = 3;
    w.global_step_target = target;
    return workload::grid_search_jobs(w);
  }

  sim::Simulator sim_{1};
  net::Fabric fabric_;
  Launcher launcher_;
  Recorder recorder_;
};

TEST_F(LauncherTest, StaggeredLaunchTimes) {
  launcher_.add_listener(&recorder_);
  launcher_.launch_all(jobs(3), assign_tasks(table1(1, 3), 4, 3), {});
  sim_.run();
  ASSERT_EQ(recorder_.arrivals.size(), 3u);
  EXPECT_EQ(recorder_.arrivals[0].second, tls::sim::Time{0});
  EXPECT_EQ(recorder_.arrivals[1].second, 100 * sim::kMillisecond);
  EXPECT_EQ(recorder_.arrivals[2].second, 200 * sim::kMillisecond);
}

TEST_F(LauncherTest, ArrivalPrecedesFirstFlow) {
  struct Checker : JobEventListener {
    net::Fabric* fabric = nullptr;
    void on_job_arrival(const dl::JobSpec&, const dl::JobPlacement&) override {
      // No traffic from this job may exist yet.
      EXPECT_EQ(fabric->active_flows(), 0u);
    }
    void on_job_departure(const dl::JobSpec&, const dl::JobPlacement&) override {}
  } checker;
  checker.fabric = &fabric_;
  launcher_.add_listener(&checker);
  launcher_.launch_all(jobs(1), assign_tasks(table1(1, 1), 4, 3), {});
  sim_.run(10 * sim::kMillisecond);
}

TEST_F(LauncherTest, DeparturesFireOnFinish) {
  launcher_.add_listener(&recorder_);
  launcher_.launch_all(jobs(2), assign_tasks(table1(1, 2), 4, 3), {});
  sim_.run();
  EXPECT_EQ(recorder_.departures.size(), 2u);
  EXPECT_TRUE(launcher_.all_finished());
  EXPECT_EQ(launcher_.finished_count(), 2);
}

TEST_F(LauncherTest, PortsAssignedWithStride) {
  launcher_.launch_all(jobs(3), assign_tasks(table1(1, 3), 4, 3), {});
  EXPECT_EQ(launcher_.jobs()[0]->spec().ps_port, 5000);
  EXPECT_EQ(launcher_.jobs()[1]->spec().ps_port, 5064);
  EXPECT_EQ(launcher_.jobs()[2]->spec().ps_port, 5128);
}

TEST_F(LauncherTest, TasksBeyondOnePortBlockRejectedWithTheirCounts) {
  // A job's PS shards plus workers must be at most 63: 1 + 62 fits,
  // 2 + 62 does not.
  auto job_with = [](int num_ps, int workers) {
    dl::JobSpec spec;
    spec.job_id = 4;
    spec.num_ps = num_ps;
    spec.num_workers = workers;
    return spec;
  };
  net::FabricConfig wide;
  wide.num_hosts = 64;
  net::Fabric fabric(sim_, wide);
  Launcher launcher(sim_, fabric);
  launcher.launch_all({job_with(1, 62)},
                      assign_tasks(table1(1, 1), 64, 62), {});
  try {
    launcher.launch_all({job_with(2, 62)},
                        assign_tasks(table1(1, 1), 64, 62, 2), {});
    FAIL() << "a job needing 64 ports was created";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "job 4 runs 2 PS + 62 workers; a job's PS shards plus "
                 "workers must be at most 63");
  }
}

TEST_F(LauncherTest, MismatchedSpecsAndPlacementsRejected) {
  EXPECT_THROW(
      launcher_.launch_all(jobs(3), assign_tasks(table1(1, 2), 4, 3), {}),
      std::invalid_argument);
}

TEST_F(LauncherTest, AllFinishedFalseWhileRunning) {
  launcher_.launch_all(jobs(1, /*target=*/30), assign_tasks(table1(1, 1), 4, 3), {});
  EXPECT_FALSE(launcher_.all_finished());
  sim_.run(sim_.now() + 10 * sim::kMillisecond);
  EXPECT_FALSE(launcher_.all_finished());
  sim_.run();
  EXPECT_TRUE(launcher_.all_finished());
}

TEST_F(LauncherTest, BusySinkForwarded) {
  int intervals = 0;
  launcher_.set_busy_sink(
      [&](net::HostId, sim::Time, sim::Time) { ++intervals; });
  launcher_.launch_all(jobs(1), assign_tasks(table1(1, 1), 4, 3), {});
  sim_.run();
  EXPECT_GT(intervals, 0);
}

// ---------------------------------------------------------------------------
// Dynamic-cluster admission (admit/evict): jobs enter and leave one at a
// time, and ports are recycled from the one pool launch_all also draws on.

TEST_F(LauncherTest, AdmitStartsImmediatelyAndFiresCallbacks) {
  launcher_.add_listener(&recorder_);
  dl::JobSpec spec = jobs(1)[0];
  dl::JobPlacement placement = assign_tasks(table1(1, 1), 4, 3)[0];
  int departed = 0;
  launcher_.admit(spec, placement,
                  [&](const dl::JobRuntime&) { ++departed; });
  ASSERT_EQ(recorder_.arrivals.size(), 1u);  // arrival fires before packets
  sim_.run();
  EXPECT_EQ(launcher_.finished_count(), 1);
  EXPECT_EQ(departed, 1);
  ASSERT_EQ(recorder_.departures.size(), 1u);
}

TEST_F(LauncherTest, AdmitRecyclesLowestFreePortSlot) {
  auto placements = assign_tasks(table1(1, 2), 4, 3);
  std::vector<dl::JobSpec> specs = jobs(2);
  dl::JobRuntime& a = launcher_.admit(specs[0], placements[0]);
  dl::JobRuntime& b = launcher_.admit(specs[1], placements[1]);
  std::uint16_t port_a = a.spec().ps_port;
  std::uint16_t port_b = b.spec().ps_port;
  EXPECT_NE(port_a, port_b);
  sim_.run();
  ASSERT_TRUE(a.finished() && b.finished());
  // Both slots are free; the next admit takes the lowest one back.
  dl::JobSpec next = jobs(1)[0];
  next.job_id = 7;
  dl::JobRuntime& c = launcher_.admit(next, placements[0]);
  EXPECT_EQ(c.spec().ps_port, std::min(port_a, port_b));
}

TEST_F(LauncherTest, RejectedJobLeavesItsPortSlotFree) {
  std::vector<dl::JobSpec> specs = jobs(2);
  dl::JobPlacement placement = assign_tasks(table1(1, 1), 4, 3)[0];
  dl::JobPlacement short_one = placement;
  short_one.worker_hosts.pop_back();  // two hosts for three workers
  EXPECT_THROW(launcher_.admit(specs[0], short_one), std::invalid_argument);
  EXPECT_TRUE(launcher_.jobs().empty());
  EXPECT_EQ(launcher_.admit(specs[1], placement).spec().ps_port, 5000);
}

TEST_F(LauncherTest, EvictEndsAJobEarly) {
  dl::JobSpec spec = jobs(1, /*target=*/1'000'000)[0];
  dl::JobRuntime& job =
      launcher_.admit(spec, assign_tasks(table1(1, 1), 4, 3)[0]);
  sim_.run(sim_.now() + 1 * sim::kSecond);
  ASSERT_FALSE(job.finished());
  launcher_.evict(job);
  sim_.run();
  EXPECT_TRUE(job.finished());
  EXPECT_TRUE(job.evicted());
  EXPECT_EQ(launcher_.finished_count(), 1);
  EXPECT_EQ(fabric_.active_flows(), 0u);
}

/// Distinct first ports of every job the launcher created.
std::set<std::uint16_t> ports_of(const Launcher& launcher) {
  std::set<std::uint16_t> ports;
  for (const auto& job : launcher.jobs()) ports.insert(job->spec().ps_port);
  return ports;
}

TEST_F(LauncherTest, AdmitAfterLaunchAllRuns) {
  launcher_.add_listener(&recorder_);
  launcher_.launch_all(jobs(2), assign_tasks(table1(1, 2), 4, 3), {});
  dl::JobSpec late = jobs(1)[0];
  late.job_id = 9;
  launcher_.admit(late, assign_tasks(table1(1, 1), 4, 3)[0]);
  EXPECT_EQ(ports_of(launcher_),
            (std::set<std::uint16_t>{5000, 5064, 5128}));
  sim_.run();
  EXPECT_TRUE(launcher_.all_finished());
  EXPECT_EQ(recorder_.departures.size(), 3u);
}

TEST_F(LauncherTest, LaunchAllAfterAdmitRuns) {
  launcher_.add_listener(&recorder_);
  dl::JobSpec early = jobs(1)[0];
  early.job_id = 9;
  launcher_.admit(early, assign_tasks(table1(1, 1), 4, 3)[0]);
  launcher_.launch_all(jobs(2), assign_tasks(table1(1, 2), 4, 3), {});
  EXPECT_EQ(ports_of(launcher_),
            (std::set<std::uint16_t>{5000, 5064, 5128}));
  sim_.run();
  EXPECT_TRUE(launcher_.all_finished());
  ASSERT_EQ(recorder_.arrivals.size(), 3u);
  // The batch's starts are staggered from the launch_all call.
  EXPECT_EQ(recorder_.arrivals[1].second, tls::sim::Time{0});
  EXPECT_EQ(recorder_.arrivals[2].second, 100 * sim::kMillisecond);
}

TEST_F(LauncherTest, StaticDepartureFreesItsPortSlot) {
  launcher_.launch_all(jobs(2), assign_tasks(table1(1, 2), 4, 3), {});
  sim_.run();
  ASSERT_TRUE(launcher_.all_finished());
  dl::JobSpec next = jobs(1)[0];
  next.job_id = 7;
  dl::JobRuntime& job =
      launcher_.admit(next, assign_tasks(table1(1, 1), 4, 3)[0]);
  EXPECT_EQ(job.spec().ps_port, 5000);
}

}  // namespace
}  // namespace tls::cluster
