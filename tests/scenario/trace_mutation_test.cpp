// Seeded mutation test of the scenario trace reader (parse_trace_csv, which
// tlsim scenario --scenario-trace feeds): a generated trace's CSV is
// corrupted field by field — hostile numbers, empty fields, an extra or a
// missing comma — and row by row — dropped, duplicated and truncated rows.
// Every mutant the reader accepts must lie within the bounds it documents,
// and must then run through run_scenario or be refused with
// std::invalid_argument (an unknown model name). Run under the debug-ubsan
// preset, whose float-cast-overflow check reports a NaN or huge time that
// slips through even when the run does not fault.
#include <gtest/gtest.h>

#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/engine.hpp"
#include "scenario/trace.hpp"
#include "simcore/rng.hpp"

namespace tls::scenario {
namespace {

/// Six short ResNet-32 jobs, a third of them evicted, so accepted mutants
/// finish in milliseconds. An empty replay regenerates this trace.
TraceConfig small_trace() {
  TraceConfig t;
  t.num_jobs = 6;
  t.mean_interarrival_s = 2;
  t.min_workers = 2;
  t.max_workers = 3;
  t.min_iterations = 3;
  t.max_iterations = 5;
  t.local_batch_size = 1;
  t.evict_fraction = 0.3;
  t.evict_min_s = 1;
  t.evict_max_s = 5;
  t.seed = 11;
  return t;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    std::size_t at = text.find(sep, start);
    parts.push_back(text.substr(
        start, at == std::string::npos ? at : at - start));
    if (at == std::string::npos) return parts;
    start = at + 1;
  }
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

/// Non-numbers, overflows and negatives, plus the largest value a field
/// may hold (an arrival past the time limit, a job that runs into it).
const char* const kHostileTokens[] = {"nan",        "inf", "-1",     "1e300",
                                      "4294967296", "",    "1000000"};

/// Applies one random mutation to the data rows; rows[0], the header,
/// stays put so the mutant reaches the field parsers.
void mutate(std::vector<std::string>& rows, sim::Rng& rng) {
  if (rows.size() < 2) return;
  const std::size_t r = 1 + rng.uniform_u64(rows.size() - 1);
  std::string& row = rows[r];
  std::vector<std::string> fields = split(row, ',');
  const std::size_t f = rng.uniform_u64(fields.size());
  switch (rng.uniform_u64(8)) {
    case 0:
    case 1:
    case 2:
      fields[f] = kHostileTokens[rng.uniform_u64(std::size(kHostileTokens))];
      row = join(fields, ',');
      break;
    case 3:  // an extra comma
      fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(f), "");
      row = join(fields, ',');
      break;
    case 4:  // a missing comma
      if (f + 1 < fields.size()) {
        fields[f] += fields[f + 1];
        fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(f + 1));
      }
      row = join(fields, ',');
      break;
    case 5:
      rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(r));
      break;
    case 6:
      rows.insert(rows.begin() + static_cast<std::ptrdiff_t>(r),
                  std::string(row));
      break;
    default:  // truncated mid-row
      row.resize(rng.uniform_u64(row.size() + 1));
      break;
  }
}

/// The bounds parse_trace_csv documents for every accepted job.
void expect_within_bounds(const Trace& trace, int mutant) {
  const sim::Time max_s = sim::from_seconds(1e9);
  for (const TraceJob& job : trace.jobs) {
    EXPECT_GE(job.job_id, 0) << "mutant " << mutant;
    EXPECT_GE(job.arrival, sim::Time{0}) << "mutant " << mutant;
    EXPECT_LE(job.arrival, max_s) << "mutant " << mutant;
    EXPECT_GE(job.lifetime, -max_s) << "mutant " << mutant;
    EXPECT_LE(job.lifetime, max_s) << "mutant " << mutant;
    EXPECT_GE(job.num_workers, 1) << "mutant " << mutant;
    EXPECT_LE(job.num_workers, 4095) << "mutant " << mutant;
    EXPECT_GE(job.local_batch_size, 1) << "mutant " << mutant;
    EXPECT_LE(job.local_batch_size, 65536) << "mutant " << mutant;
    EXPECT_GE(job.iterations, 1) << "mutant " << mutant;
    EXPECT_LE(job.iterations, 1000000) << "mutant " << mutant;
  }
}

TEST(ScenarioTraceMutation, AcceptedMutantsStayInBoundsAndRun) {
  std::vector<std::string> original =
      split(trace_csv(generate_trace(small_trace())), '\n');
  original.pop_back();  // the empty string after the final newline

  sim::Rng rng(20261017);
  int accepted = 0;
  int refused_by_engine = 0;
  for (int m = 0; m < 400; ++m) {
    std::vector<std::string> rows = original;
    const int edits = 1 + static_cast<int>(rng.uniform_u64(2));
    for (int k = 0; k < edits; ++k) mutate(rows, rng);

    Trace trace;
    std::string error;
    if (!parse_trace_csv(join(rows, '\n'), &trace, &error)) {
      EXPECT_EQ(error.rfind("trace line ", 0), 0u) << "mutant " << m;
      continue;
    }
    ++accepted;
    expect_within_bounds(trace, m);

    Config config;
    config.num_hosts = 4;
    config.cores_per_host = 4;
    config.trace = small_trace();
    config.replay = std::move(trace);
    config.time_limit = 30 * sim::kSecond;
    config.sample_period = sim::Time{0};
    try {
      Result result = run_scenario(config);
      EXPECT_LE(result.horizon_s, 30.0) << "mutant " << m;
    } catch (const std::invalid_argument&) {
      ++refused_by_engine;
    }
  }
  // Not vacuous: the reader rejects most mutants, and both engine outcomes
  // (a run, an unknown model refused) happen.
  EXPECT_GT(accepted, 50);
  EXPECT_LT(accepted, 200);
  EXPECT_GT(refused_by_engine, 10);
  EXPECT_GT(accepted - refused_by_engine, 40);
}

}  // namespace
}  // namespace tls::scenario
