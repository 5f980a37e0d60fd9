// The parallel-determinism witness (DESIGN.md §7): the same seeded sweep
// run with jobs=1 and jobs=8 must produce byte-identical CSV/JSON exports
// — results are keyed by run index, never by completion order.
#include "runtime/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exp/export.hpp"

namespace tls::runtime {
namespace {

/// Small contended sweep mirroring tests/integration/determinism_test.cpp:
/// colocated PSes and a slow link so runs are long enough to genuinely
/// overlap and finish out of submission order across threads.
exp::ExperimentConfig small_contended(core::PolicyKind policy) {
  exp::ExperimentConfig c;
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

/// A seeded multi-entry plan: 3 policies x 2 seeds.
RunPlan seeded_sweep() {
  RunPlan plan;
  for (core::PolicyKind policy :
       {core::PolicyKind::kFifo, core::PolicyKind::kTlsOne,
        core::PolicyKind::kTlsRR}) {
    for (std::uint64_t seed : {17u, 18u}) {
      exp::ExperimentConfig c = small_contended(policy);
      c.seed = seed;
      plan.add(std::string(core::to_string(policy)) + "/seed" +
                   std::to_string(seed),
               c);
    }
  }
  return plan;
}

/// Every export surface of every run, concatenated in plan order.
std::string full_export(const RunReport& report) {
  std::string out;
  for (const exp::ExperimentResult& r : report.results) {
    out += exp::jobs_csv(r) + "\n" + exp::barriers_csv(r) + "\n" +
           exp::to_json(r) + "\n";
  }
  return out;
}

RunOptions with_jobs(int jobs) {
  RunOptions o;
  o.jobs = jobs;
  return o;
}

TEST(Runner, ParallelExportIsByteIdenticalToSerial) {
  RunPlan plan = seeded_sweep();
  RunReport serial = run_plan(plan, with_jobs(1));
  RunReport parallel = run_plan(plan, with_jobs(8));
  ASSERT_EQ(serial.results.size(), plan.size());
  ASSERT_EQ(parallel.results.size(), plan.size());
  EXPECT_EQ(full_export(serial), full_export(parallel));
  EXPECT_EQ(serial.labels, parallel.labels);
}

TEST(Runner, ReplicatedPlanMatchesRunReplicatedContract) {
  exp::ExperimentConfig base = small_contended(core::PolicyKind::kTlsRR);
  RunPlan plan = RunPlan::replicated(base, 3);
  ASSERT_EQ(plan.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.entries[static_cast<std::size_t>(i)].config.seed,
              base.seed + static_cast<std::uint64_t>(i));
  }
  // Running the plan must agree with direct runs at each seed.
  std::vector<exp::ExperimentResult> replicas =
      run_plan(RunPlan::replicated(base, 2)).results;
  exp::ExperimentConfig direct = base;
  direct.seed = base.seed + 1;
  EXPECT_EQ(exp::to_json(exp::run_experiment(direct)),
            exp::to_json(replicas[1]));
}

TEST(Runner, PolicyComparisonPlanIsFifoFirst) {
  exp::ExperimentConfig base = small_contended(core::PolicyKind::kFifo);
  RunPlan plan = RunPlan::policy_comparison(base);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.entries[0].config.controller.policy, core::PolicyKind::kFifo);
  EXPECT_EQ(plan.entries[1].config.controller.policy,
            core::PolicyKind::kTlsOne);
  EXPECT_EQ(plan.entries[2].config.controller.policy, core::PolicyKind::kTlsRR);

  std::vector<exp::ExperimentResult> results = run_plan(plan).results;
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].policy_name, "FIFO");
}

TEST(Runner, PlacementSweepIsRowMajor) {
  exp::ExperimentConfig base = small_contended(core::PolicyKind::kFifo);
  RunPlan plan = RunPlan::placement_sweep(
      base, {1, 2}, {core::PolicyKind::kFifo, core::PolicyKind::kTlsOne});
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.entries[0].config.placement.index, 1);
  EXPECT_EQ(plan.entries[1].config.placement.index, 1);
  EXPECT_EQ(plan.entries[1].config.controller.policy,
            core::PolicyKind::kTlsOne);
  EXPECT_EQ(plan.entries[2].config.placement.index, 2);
}

TEST(Runner, ProgressLinesGoToTheGivenStream) {
  RunPlan plan;
  plan.add("only", small_contended(core::PolicyKind::kFifo));
  std::ostringstream progress;
  RunOptions options = with_jobs(1);
  options.progress = true;
  options.progress_stream = &progress;
  RunReport report = run_plan(plan, options);
  EXPECT_EQ(report.results.size(), 1u);
  EXPECT_NE(progress.str().find("only"), std::string::npos);
  EXPECT_NE(progress.str().find("1/1"), std::string::npos);
}

TEST(Runner, FanOutCallsEveryIndexOnceAndReportsItsThreads) {
  for (int jobs : {0, 1, 3, 8}) {
    std::vector<int> calls(5, 0);
    fan_out(calls.size(), jobs, [&calls](std::size_t i) { ++calls[i]; });
    EXPECT_EQ(calls, std::vector<int>(5, 1)) << "jobs=" << jobs;
  }
  bool called = false;
  fan_out(0, 4, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Runner, FanOutRunsCallsConcurrently) {
  // Each call waits until all four have started, so four threads must run
  // them at once. A serial fan-out sees 1, 2, 3, 4 and fails once the one
  // shared deadline passes instead of hanging.
  std::atomic<int> started{0};
  std::vector<int> seen(4, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  fan_out(seen.size(), 4, [&](std::size_t i) {
    ++started;
    while (started.load() < 4 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    seen[i] = started.load();
  });
  EXPECT_EQ(seen, std::vector<int>(4, 4));
}

TEST(Runner, DefaultJobsIsPositive) { EXPECT_GE(default_jobs(), 1); }

TEST(Runner, FanOutRunsEveryCallBeforeRethrowingTheFirstError) {
  for (int jobs : {1, 4}) {
    std::vector<int> calls(6, 0);
    auto run_one = [&calls](std::size_t i) {
      ++calls[i];
      if (i % 2 == 1) throw std::runtime_error("odd " + std::to_string(i));
    };
    EXPECT_THROW(fan_out(calls.size(), jobs, run_one), std::runtime_error);
    EXPECT_EQ(calls, std::vector<int>(6, 1)) << "jobs=" << jobs;
  }
  // Serially the first error is the first index that throws.
  try {
    fan_out(4, 1, [](std::size_t i) {
      if (i >= 1) throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "fan_out swallowed the error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 1");
  }
}

TEST(Runner, EmptyPlanIsANoOp) {
  RunReport report = run_plan(RunPlan{}, with_jobs(4));
  EXPECT_TRUE(report.results.empty());
  EXPECT_TRUE(report.labels.empty());
}

}  // namespace
}  // namespace tls::runtime
