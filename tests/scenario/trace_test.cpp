#include "scenario/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

namespace tls::scenario {
namespace {

TraceConfig small_config() {
  TraceConfig c;
  c.num_jobs = 40;
  c.mean_interarrival_s = 5;
  c.models = {"resnet32_cifar10", "alexnet"};
  c.min_workers = 2;
  c.max_workers = 5;
  c.min_iterations = 10;
  c.max_iterations = 30;
  c.seed = 7;
  return c;
}

TEST(Trace, GenerationIsDeterministic) {
  TraceConfig c = small_config();
  Trace a = generate_trace(c);
  Trace b = generate_trace(c);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  EXPECT_EQ(trace_csv(a), trace_csv(b));
}

TEST(Trace, DifferentSeedsDiffer) {
  TraceConfig c = small_config();
  Trace a = generate_trace(c);
  c.seed = 8;
  Trace b = generate_trace(c);
  EXPECT_NE(trace_csv(a), trace_csv(b));
}

TEST(Trace, ArrivalsNondecreasingAndFieldsInRange) {
  TraceConfig c = small_config();
  Trace t = generate_trace(c);
  ASSERT_EQ(t.jobs.size(), static_cast<std::size_t>(c.num_jobs));
  sim::Time prev{};
  for (const TraceJob& j : t.jobs) {
    EXPECT_GE(j.arrival, prev);
    prev = j.arrival;
    EXPECT_GE(j.num_workers, c.min_workers);
    EXPECT_LE(j.num_workers, c.max_workers);
    EXPECT_GE(j.iterations, c.min_iterations);
    EXPECT_LE(j.iterations, c.max_iterations);
    EXPECT_TRUE(j.model == "resnet32_cifar10" || j.model == "alexnet")
        << j.model;
    EXPECT_EQ(j.lifetime, sim::Time{});  // evict_fraction = 0
  }
}

TEST(Trace, BoundedParetoStaysWithinBounds) {
  // Inverse CDF: u = 0 must map to lo, u -> 1 must approach hi.
  EXPECT_DOUBLE_EQ(bounded_pareto(0.0, 1.5, 2.0, 600.0), 2.0);
  for (double u = 0.0; u < 1.0; u += 0.01) {
    double x = bounded_pareto(u, 1.5, 2.0, 600.0);
    EXPECT_GE(x, 2.0) << "u=" << u;
    EXPECT_LE(x, 600.0) << "u=" << u;
  }
  EXPECT_NEAR(bounded_pareto(std::nextafter(1.0, 0.0), 1.5, 2.0, 600.0), 600.0,
              1e-6);
}

TEST(Trace, ParetoInterarrivalsRespectConfiguredBounds) {
  TraceConfig c = small_config();
  c.process = ArrivalProcess::kParetoBounded;
  c.pareto_alpha = 1.2;
  c.pareto_min_s = 3;
  c.pareto_max_s = 50;
  Trace t = generate_trace(c);
  sim::Time prev{};
  for (const TraceJob& j : t.jobs) {
    double gap_s = sim::to_seconds(j.arrival) - sim::to_seconds(prev);
    EXPECT_GE(gap_s, 3 - 1e-9);
    EXPECT_LE(gap_s, 50 + 1e-9);
    prev = j.arrival;
  }
}

TEST(Trace, EvictFractionOneGivesEveryJobALifetime) {
  TraceConfig c = small_config();
  c.evict_fraction = 1.0;
  c.evict_min_s = 10;
  c.evict_max_s = 20;
  Trace t = generate_trace(c);
  for (const TraceJob& j : t.jobs) {
    double life_s = sim::to_seconds(j.lifetime);
    EXPECT_GE(life_s, 10 - 1e-9);
    EXPECT_LE(life_s, 20 + 1e-9);
  }
}

TEST(Trace, CsvRoundTripIsExact) {
  TraceConfig c = small_config();
  c.evict_fraction = 0.5;
  Trace t = generate_trace(c);
  std::string csv = trace_csv(t);
  Trace parsed;
  std::string error;
  ASSERT_TRUE(parse_trace_csv(csv, &parsed, &error)) << error;
  ASSERT_EQ(parsed.jobs.size(), t.jobs.size());
  for (std::size_t i = 0; i < t.jobs.size(); ++i) {
    EXPECT_EQ(parsed.jobs[i].job_id, t.jobs[i].job_id);
    EXPECT_EQ(parsed.jobs[i].arrival, t.jobs[i].arrival);
    EXPECT_EQ(parsed.jobs[i].lifetime, t.jobs[i].lifetime);
    EXPECT_EQ(parsed.jobs[i].model, t.jobs[i].model);
    EXPECT_EQ(parsed.jobs[i].num_workers, t.jobs[i].num_workers);
    EXPECT_EQ(parsed.jobs[i].local_batch_size, t.jobs[i].local_batch_size);
    EXPECT_EQ(parsed.jobs[i].iterations, t.jobs[i].iterations);
  }
  // And the re-serialization is byte-identical.
  EXPECT_EQ(trace_csv(parsed), csv);
}

TEST(Trace, ParseSortsByArrivalThenJobId) {
  std::string csv =
      "job_id,arrival_s,lifetime_s,model,workers,batch,iterations\n"
      "2,5.0,0.0,alexnet,2,1,10\n"
      "1,1.0,0.0,alexnet,2,1,10\n"
      "0,5.0,0.0,alexnet,2,1,10\n";
  Trace t;
  std::string error;
  ASSERT_TRUE(parse_trace_csv(csv, &t, &error)) << error;
  ASSERT_EQ(t.jobs.size(), 3u);
  EXPECT_EQ(t.jobs[0].job_id, 1);
  EXPECT_EQ(t.jobs[1].job_id, 0);
  EXPECT_EQ(t.jobs[2].job_id, 2);
}

TEST(Trace, ParseRejectsWrongFieldCount) {
  Trace t;
  std::string error;
  EXPECT_FALSE(parse_trace_csv("0,1.0,0.0,alexnet,2,1\n", &t, &error));
  EXPECT_NE(error.find("expected 7 fields"), std::string::npos) << error;
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(Trace, ParseRejectsBadValues) {
  // Each value is malformed or lies outside the bounds tlsim scenario puts
  // on a generated trace, or the file holds no job.
  const std::pair<const char*, const char*> cases[] = {
      {"x,1.0,0.0,alexnet,2,1,10", "bad job_id"},
      {"-1,1.0,0.0,alexnet,2,1,10", "bad job_id"},
      {"4294967296,1.0,0.0,alexnet,2,1,10", "bad job_id"},
      {"2147483648,1.0,0.0,alexnet,2,1,10", "bad job_id"},
      {"0,-1.0,0.0,alexnet,2,1,10", "bad arrival_s"},
      {"0,nan,0.0,alexnet,2,1,10", "bad arrival_s"},
      {"0,inf,0.0,alexnet,2,1,10", "bad arrival_s"},
      {"0,1e300,0.0,alexnet,2,1,10", "bad arrival_s"},
      {"0,1.0,nan,alexnet,2,1,10", "bad lifetime_s"},
      {"0,1.0,-inf,alexnet,2,1,10", "bad lifetime_s"},
      {"0,1.0,1e10,alexnet,2,1,10", "bad lifetime_s"},
      {"0,1.0,,alexnet,2,1,10", "bad lifetime_s"},
      {"0,1.0,0.0,,2,1,10", "empty model"},
      {"0,1.0,0.0,alexnet,0,1,10", "bad workers"},
      {"0,1.0,0.0,alexnet,4096,1,10", "bad workers"},
      {"0,1.0,0.0,alexnet,4294967298,1,10", "bad workers"},
      {"0,1.0,0.0,alexnet,,1,10", "bad workers"},
      {"0,1.0,0.0,alexnet,2,0,10", "bad batch"},
      {"0,1.0,0.0,alexnet,2,65537,10", "bad batch"},
      {"0,1.0,0.0,alexnet,2,1,0", "bad iterations"},
      {"0,1.0,0.0,alexnet,2,1,1000001", "bad iterations"},
      {"0,1.0,0.0,alexnet,2,1,9000000000000000000", "bad iterations"},
      {"0,1.0,0.0,alexnet,2,1,9e18", "bad iterations"},
      // A number is the whole field, in plain decimal.
      {"0,1.0,0.0,alexnet,+5,1,10", "bad workers"},
      {"0,1.0,0.0,alexnet, 5,1,10", "bad workers"},
      {"0,1.0,0.0,alexnet,0x10,1,10", "bad workers"},
      {"0,+5,0.0,alexnet,2,1,10", "bad arrival_s"},
      {"0, 5,0.0,alexnet,2,1,10", "bad arrival_s"},
      {"0,0x10,0.0,alexnet,2,1,10", "bad arrival_s"},
      // No job at all: an empty replay would run the generated trace.
      {"job_id,arrival_s,lifetime_s,model,workers,batch,iterations",
       "trace has no jobs"},
      {"", "trace has no jobs"},
  };
  for (const auto& [line, expected] : cases) {
    Trace t;
    std::string error;
    EXPECT_FALSE(parse_trace_csv(std::string(line) + "\n", &t, &error))
        << line;
    EXPECT_NE(error.find(expected), std::string::npos) << line << ": " << error;
  }

  // The bounds themselves are accepted.
  Trace t;
  std::string error;
  ASSERT_TRUE(parse_trace_csv(
      "2147483647,1e9,-1e9,alexnet,4095,65536,1000000\n"
      "0,0,1e9,alexnet,1,1,1\n",
      &t, &error))
      << error;
  ASSERT_EQ(t.jobs.size(), 2u);
  EXPECT_EQ(t.jobs[0].job_id, 0);
  EXPECT_EQ(t.jobs[1].job_id, 2147483647);
  EXPECT_EQ(t.jobs[1].arrival, sim::from_seconds(1e9));
  EXPECT_EQ(t.jobs[1].lifetime, sim::from_seconds(-1e9));
  EXPECT_EQ(t.jobs[1].num_workers, 4095);
  EXPECT_EQ(t.jobs[1].local_batch_size, 65536);
  EXPECT_EQ(t.jobs[1].iterations, 1000000);
}

TEST(Trace, ParseRejectsDuplicateJobIds) {
  std::string csv =
      "0,1.0,0.0,alexnet,2,1,10\n"
      "0,2.0,0.0,alexnet,2,1,10\n";
  Trace t;
  std::string error;
  EXPECT_FALSE(parse_trace_csv(csv, &t, &error));
  EXPECT_NE(error.find("duplicate job_id"), std::string::npos) << error;
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(Trace, ModelMixParsesNamesAndExpandsMix) {
  std::vector<std::string> models;
  std::string error;
  ASSERT_TRUE(parse_model_mix("alexnet,vgg16", &models, &error)) << error;
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0], "alexnet");
  EXPECT_EQ(models[1], "vgg16");

  ASSERT_TRUE(parse_model_mix("mix", &models, &error)) << error;
  EXPECT_GE(models.size(), 4u);  // the whole zoo
}

TEST(Trace, ModelMixRejectsUnknownListingValidNames) {
  std::vector<std::string> models;
  std::string error;
  EXPECT_FALSE(parse_model_mix("resnet999", &models, &error));
  EXPECT_NE(error.find("unknown model 'resnet999'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("resnet32_cifar10"), std::string::npos) << error;
  EXPECT_NE(error.find("|mix"), std::string::npos) << error;

  EXPECT_FALSE(parse_model_mix("", &models, &error));
  EXPECT_NE(error.find("empty model mix"), std::string::npos) << error;
}

TEST(Trace, GenerateValidatesConfig) {
  TraceConfig c = small_config();
  c.num_jobs = 0;
  EXPECT_THROW(generate_trace(c), std::invalid_argument);

  c = small_config();
  c.mean_interarrival_s = 0;
  EXPECT_THROW(generate_trace(c), std::invalid_argument);

  c = small_config();
  c.models = {"no_such_model"};
  EXPECT_THROW(generate_trace(c), std::invalid_argument);

  c = small_config();
  c.min_workers = 4;
  c.max_workers = 2;
  EXPECT_THROW(generate_trace(c), std::invalid_argument);

  c = small_config();
  c.evict_fraction = 1.5;
  EXPECT_THROW(generate_trace(c), std::invalid_argument);

  c = small_config();
  c.process = ArrivalProcess::kParetoBounded;
  c.pareto_max_s = c.pareto_min_s;
  EXPECT_THROW(generate_trace(c), std::invalid_argument);
}

TEST(Trace, ArrivalProcessNames) {
  EXPECT_STREQ(to_string(ArrivalProcess::kPoisson), "poisson");
  EXPECT_STREQ(to_string(ArrivalProcess::kParetoBounded), "pareto");
}

}  // namespace
}  // namespace tls::scenario
