// bench_diff — perf-trajectory gate over the committed BENCH_*.json files.
//
// Every bench writes a machine-readable timing file (BENCH_<name>.json,
// see bench/common.hpp) and the repo commits one copy per bench as the
// baseline. This tool compares a directory of freshly emitted files
// against those baselines and prints a trajectory table: one row per
// bench, wall-clock then vs now, and the relative delta. Rows whose
// workload knobs (iters / runs / jobs) differ between the two files are
// reported but never flagged — the wall clocks are not comparable.
//
//   bench_diff <baseline_dir> <fresh_dir> [--max-regress-pct P]
//
// With --max-regress-pct, exits nonzero when any comparable bench got
// slower by more than P percent. CI runs this as a non-fatal stage (wall
// clock on shared runners is noisy); the ctest registration compares the
// repo against itself, pinning the parser and the zero-delta path.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "simcore/parse.hpp"

namespace {

constexpr double kAnyReal = std::numeric_limits<double>::max();

/// Extracts the number following `"key":` at any depth: the whole value up
/// to the next ',', '}' or newline, trimmed. False when absent or when the
/// value is not a plain number ("1.5x" is not 1.5).
bool extract_number(const std::string& text, const std::string& key,
                    double* out) {
  std::string needle = "\"" + key + "\"";
  std::size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  at = text.find(':', at + needle.size());
  if (at == std::string::npos) return false;
  std::string_view value = std::string_view(text).substr(at + 1);
  value = value.substr(0, value.find_first_of(",}\n"));
  return tls::sim::parse_real(tls::sim::trim(value), out, -kAnyReal,
                              kAnyReal);
}

struct BenchFile {
  std::string name;  ///< "attribution" from BENCH_attribution.json
  double wall_s = 0.0;
  double iters = 0.0;
  double runs = 0.0;
  bool ok = false;
};

BenchFile load(const std::filesystem::path& path) {
  BenchFile b;
  std::string stem = path.stem().string();  // BENCH_<name>
  b.name = stem.size() > 6 ? stem.substr(6) : stem;
  std::ifstream in(path);
  if (!in) return b;
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  b.ok = extract_number(text, "wall_s", &b.wall_s);
  extract_number(text, "iters", &b.iters);
  extract_number(text, "runs", &b.runs);
  return b;
}

std::vector<std::filesystem::path> bench_files(const std::string& dir) {
  std::vector<std::filesystem::path> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 &&
        entry.path().extension() == ".json") {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_diff <baseline_dir> <fresh_dir> "
               "[--max-regress-pct P]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_dir, fresh_dir;
  double max_regress_pct = -1.0;  // <0 = report only, never fail
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--max-regress-pct") {
      if (i + 1 >= argc) return usage();
      if (!tls::sim::parse_real(argv[++i], &max_regress_pct, 0, kAnyReal)) {
        return usage();
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) return usage();
  baseline_dir = positional[0];
  fresh_dir = positional[1];

  std::printf("%-22s %12s %12s %9s  %s\n", "bench", "base wall_s",
              "fresh wall_s", "delta%", "status");
  int compared = 0, regressions = 0, skipped = 0;
  for (const std::filesystem::path& fresh_path : bench_files(fresh_dir)) {
    std::filesystem::path base_path =
        std::filesystem::path(baseline_dir) / fresh_path.filename();
    std::error_code ec;
    if (!std::filesystem::exists(base_path, ec)) {
      std::printf("%-22s %12s %12s %9s  new bench (no baseline)\n",
                  load(fresh_path).name.c_str(), "-", "-", "-");
      continue;
    }
    BenchFile base = load(base_path);
    BenchFile fresh = load(fresh_path);
    if (!base.ok || !fresh.ok) {
      std::printf("%-22s %12s %12s %9s  no comparable wall_s (skipped)\n",
                  fresh.name.c_str(), "-", "-", "-");
      ++skipped;
      continue;
    }
    if (base.iters != fresh.iters || base.runs != fresh.runs) {
      std::printf("%-22s %12.3f %12.3f %9s  workload changed (skipped)\n",
                  fresh.name.c_str(), base.wall_s, fresh.wall_s, "-");
      ++skipped;
      continue;
    }
    double delta_pct = base.wall_s > 0.0
                           ? (fresh.wall_s - base.wall_s) / base.wall_s * 100.0
                           : 0.0;
    bool flagged = max_regress_pct >= 0.0 && delta_pct > max_regress_pct;
    std::printf("%-22s %12.3f %12.3f %+8.1f%%  %s\n", fresh.name.c_str(),
                base.wall_s, fresh.wall_s, delta_pct,
                flagged ? "REGRESSION" : "ok");
    ++compared;
    if (flagged) ++regressions;
  }
  std::printf("\n%d compared, %d skipped, %d regression%s", compared, skipped,
              regressions, regressions == 1 ? "" : "s");
  if (max_regress_pct >= 0.0) {
    std::printf(" worse than %.0f%%", max_regress_pct);
  }
  std::printf("\n");
  return regressions > 0 ? 1 : 0;
}
