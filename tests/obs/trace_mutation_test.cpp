// Seeded mutation test of the offline attribution path: a real simulated
// trace CSV is corrupted row-wise — reversed and shuffled row blocks,
// duplicated rows, dropped rows — and every mutant goes through
// StreamingAnalyzer and through tlsreport's default mode. Mutants break
// the engine's time-order contract, so their reports mean nothing; what is
// checked is that nothing crashes (run under the debug-asan / debug-ubsan
// presets to catch out-of-bounds reads that do not fault) and that
// tlsreport exits 0 (analyzed) or 2 (rejected input).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "obs/analysis.hpp"
#include "obs/reader.hpp"
#include "obs/report_cli.hpp"
#include "obs/streaming.hpp"
#include "simcore/rng.hpp"

namespace tls::obs {
namespace {

namespace fs = std::filesystem;

/// Lines of a contended 2-job FIFO run's trace CSV, header first.
std::vector<std::string> real_trace_rows(const fs::path& dir) {
  exp::ExperimentConfig c;
  c.num_hosts = 3;
  c.workload.num_jobs = 2;
  c.workload.workers_per_job = 2;
  c.workload.global_step_target = 2 * 4;  // 4 iterations x 2 workers
  c.placement = cluster::table1(1, 2);
  c.controller.policy = core::PolicyKind::kFifo;
  c.seed = 1;
  c.obs.trace_csv_path = (dir / "trace.csv").string();
  exp::run_experiment(c);
  std::ifstream in(c.obs.trace_csv_path, std::ios::binary);
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) rows.push_back(line);
  return rows;
}

/// Applies one random row-level mutation to the data rows; rows[0], the
/// header, stays put so the mutant reaches the analyzer.
void mutate(std::vector<std::string>& rows, sim::Rng& rng) {
  const std::size_t data = rows.size() - 1;
  if (data < 2) return;
  const std::size_t len =
      2 + static_cast<std::size_t>(rng.uniform_u64(std::min<std::size_t>(
              data - 1, 64)));
  const std::size_t first =
      1 + static_cast<std::size_t>(rng.uniform_u64(data - len + 1));
  auto begin = rows.begin() + static_cast<std::ptrdiff_t>(first);
  auto end = begin + static_cast<std::ptrdiff_t>(len);
  switch (rng.uniform_u64(4)) {
    case 0:
      std::reverse(begin, end);
      break;
    case 1:
      for (std::size_t i = len; i > 1; --i) {
        std::swap(begin[static_cast<std::ptrdiff_t>(i - 1)],
                  begin[static_cast<std::ptrdiff_t>(rng.uniform_u64(i))]);
      }
      break;
    case 2:
      for (std::size_t k = 0; k < len; ++k) {
        std::size_t from = 1 + static_cast<std::size_t>(rng.uniform_u64(data));
        std::size_t to = 1 + static_cast<std::size_t>(rng.uniform_u64(data));
        rows.insert(rows.begin() + static_cast<std::ptrdiff_t>(to),
                    std::string(rows[from]));
      }
      break;
    default:
      rows.erase(begin, end);
      break;
  }
}

TEST(TraceMutation, MutatedRealTraceNeverCrashesEngineOrCli) {
  fs::path dir = fs::path(testing::TempDir()) / "tls_trace_mutation";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<std::string> original = real_trace_rows(dir);
  ASSERT_GT(original.size(), 200u) << "simulation wrote too small a trace";

  sim::Rng rng(20240613);
  const fs::path mutant_path = dir / "mutant.csv";
  const std::string json_path = (dir / "mutant.json").string();
  int out_of_order = 0;
  for (int m = 0; m < 150; ++m) {
    std::vector<std::string> rows = original;
    const int edits = 1 + static_cast<int>(rng.uniform_u64(3));
    for (int k = 0; k < edits; ++k) mutate(rows, rng);
    {
      std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
      for (const std::string& row : rows) out << row << '\n';
    }

    StreamingAnalyzer analyzer;
    TraceHealth health;
    std::string error;
    bool parsed = for_each_trace_csv_event(
        mutant_path.string(),
        [&analyzer](const TraceEvent& e) { analyzer.ingest(e); }, &health,
        &error);
    analyzer.set_health(health);
    RunReport report = analyzer.finish();
    EXPECT_FALSE(report_text(report).empty()) << "mutant " << m;
    EXPECT_FALSE(report_json(report).empty()) << "mutant " << m;
    if (analyzer.out_of_order()) ++out_of_order;

    const std::string path = mutant_path.string();
    const char* argv[] = {"tlsreport", path.c_str(), "--quiet", "--json",
                          json_path.c_str()};
    std::ostringstream cli_out, cli_err;
    int code = run_report_cli(5, argv, cli_out, cli_err);
    EXPECT_TRUE(code == 0 || code == 2)
        << "mutant " << m << " exit " << code << ": " << cli_err.str();
    EXPECT_EQ(code == 0, parsed) << "mutant " << m << ": " << error;
  }
  // Not vacuous: most mutants broke the time-order contract.
  EXPECT_GT(out_of_order, 75);
}

}  // namespace
}  // namespace tls::obs
