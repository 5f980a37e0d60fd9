#include "exp/export.hpp"

#include <gtest/gtest.h>

namespace tls::exp {
namespace {

ExperimentResult sample_result() {
  ExperimentResult r;
  r.policy_name = "TLs-RR";
  r.avg_jct_s = 42.5;
  r.min_jct_s = 40.0;
  r.max_jct_s = 45.0;
  r.all_finished = true;
  r.tc_commands = 7;
  JobResult j0;
  j0.job_id = 0;
  j0.jct_s = 40.0;
  j0.iterations = 10;
  j0.finished = true;
  j0.barrier_mean_waits_s = {0.1, 0.2};
  j0.barrier_variances_s2 = {0.01, 0.02};
  JobResult j1;
  j1.job_id = 1;
  j1.jct_s = 45.0;
  j1.iterations = 10;
  j1.finished = true;
  r.jobs = {j0, j1};
  return r;
}

TEST(Export, JobsCsvShape) {
  std::string csv = jobs_csv(sample_result());
  EXPECT_EQ(csv.find("job_id,jct_s,iterations,finished\n"), 0u);
  EXPECT_NE(csv.find("0,40,10,1"), std::string::npos);
  EXPECT_NE(csv.find("1,45,10,1"), std::string::npos);
}

TEST(Export, BarriersCsvOneRowPerBarrier) {
  std::string csv = barriers_csv(sample_result());
  // Header + 2 barriers from job 0, none from job 1.
  int lines = 0;
  for (char c : csv) lines += (c == '\n');
  EXPECT_EQ(lines, 3);
  EXPECT_NE(csv.find("0,1,0.2,0.02"), std::string::npos);
}

TEST(Export, JsonContainsHeadlineMetrics) {
  std::string json = to_json(sample_result());
  EXPECT_NE(json.find("\"policy\": \"TLs-RR\""), std::string::npos);
  EXPECT_NE(json.find("\"avg_jct_s\": 42.5"), std::string::npos);
  EXPECT_NE(json.find("\"all_finished\": true"), std::string::npos);
  EXPECT_NE(json.find("\"tc_commands\": 7"), std::string::npos);
  // Balanced braces as a cheap well-formedness check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Export, JsonEscapesStrings) {
  ExperimentResult r = sample_result();
  r.policy_name = "we\"ird\\name\t";
  std::string json = to_json(r);
  EXPECT_NE(json.find("\"policy\": \"we\\\"ird\\\\name\\u0009\""),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace tls::exp
