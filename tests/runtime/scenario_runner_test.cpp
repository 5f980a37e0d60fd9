#include "runtime/runner.hpp"

#include <gtest/gtest.h>

#include "scenario/export.hpp"

namespace tls::runtime {
namespace {

scenario::Config small_config() {
  scenario::Config c;
  c.num_hosts = 4;
  c.cores_per_host = 4;
  c.trace.num_jobs = 5;
  c.trace.mean_interarrival_s = 2;
  c.trace.min_workers = 2;
  c.trace.max_workers = 3;
  c.trace.min_iterations = 3;
  c.trace.max_iterations = 4;
  c.trace.local_batch_size = 1;
  c.trace.seed = 17;
  c.seed = 2;
  c.sample_period = sim::Time{0};
  return c;
}

RunOptions with_jobs(int jobs) {
  RunOptions o;
  o.jobs = jobs;
  return o;
}

TEST(ScenarioPlan, PolicyComparisonCoversDefaultPoliciesFifoFirst) {
  ScenarioPlan plan = ScenarioPlan::policy_comparison(small_config());
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.entries[0].label, "FIFO");
  EXPECT_EQ(plan.entries[1].label, "TLs-One");
  EXPECT_EQ(plan.entries[2].label, "TLs-RR");
  for (const ScenarioPlan::Entry& e : plan.entries) {
    // The workload is shared: only the policy differs.
    EXPECT_EQ(e.config.trace.seed, 17u);
    EXPECT_EQ(e.config.seed, 2u);
  }
}

TEST(ScenarioRunner, ParallelPlanMatchesSerialByteForByte) {
  ScenarioPlan plan = ScenarioPlan::policy_comparison(small_config());
  ScenarioReport serial = run_plan(plan, with_jobs(1));
  ScenarioReport parallel = run_plan(plan, with_jobs(8));
  ASSERT_EQ(serial.results.size(), 3u);
  ASSERT_EQ(parallel.results.size(), 3u);
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(scenario::scenario_json(serial.results[i]),
              scenario::scenario_json(parallel.results[i]))
        << serial.labels[i];
  }
}

TEST(ScenarioRunner, ResultsAreKeyedByEntryIndex) {
  ScenarioPlan plan = ScenarioPlan::policy_comparison(small_config());
  ScenarioReport report = run_plan(plan, with_jobs(3));
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_EQ(report.results[0].policy_name, "FIFO");
  EXPECT_EQ(report.results[1].policy_name, "TLs-One");
  EXPECT_EQ(report.results[2].policy_name, "TLs-RR");
  EXPECT_EQ(report.labels,
            (std::vector<std::string>{"FIFO", "TLs-One", "TLs-RR"}));
}

TEST(ScenarioRunner, WorkerExceptionIsRethrown) {
  ScenarioPlan plan;
  scenario::Config good = small_config();
  scenario::Config bad = small_config();
  bad.num_hosts = 1;  // run_scenario throws std::invalid_argument
  plan.add("good", good);
  plan.add("bad", bad);
  EXPECT_THROW(run_plan(plan, with_jobs(2)), std::invalid_argument);
}

TEST(ScenarioRunner, EmptyPlanYieldsEmptyReport) {
  ScenarioReport report = run_plan(ScenarioPlan{}, with_jobs(4));
  EXPECT_TRUE(report.results.empty());
  EXPECT_TRUE(report.labels.empty());
}

}  // namespace
}  // namespace tls::runtime
