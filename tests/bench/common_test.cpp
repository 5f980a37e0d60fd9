// The benches' scale knobs (bench/common.hpp): each flag and its
// TLS_BENCH_* variable takes the range tlsim gives the same knob, and a
// value outside it exits 2 with the message. Every knob is read in a
// forked child, and init is fed only rejected values, so no bench starts.
#include "bench/common.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace tls::bench {
namespace {

void init_with(std::vector<std::string> args) {
  args.insert(args.begin(), "bench_knobs");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  init(static_cast<int>(argv.size()), argv.data());
}

struct Rejected {
  const char* flag;
  const char* env;
  const char* value;
};

constexpr Rejected kRejected[] = {
    {"iters", "TLS_BENCH_ITERS", "0"},
    {"iters", "TLS_BENCH_ITERS", "-1"},
    {"iters", "TLS_BENCH_ITERS", "1000001"},
    {"seed", "TLS_BENCH_SEED", "-1"},
    {"seed", "TLS_BENCH_SEED", "4611686018427387904"},  // 2^62
    {"jobs", "TLS_BENCH_JOBS", "-1"},
    {"jobs", "TLS_BENCH_JOBS", "4097"},
};

TEST(BenchKnobs, FlagOutsideTlsimRangeExitsTwo) {
  for (const Rejected& r : kRejected) {
    SCOPED_TRACE(testing::Message() << "--" << r.flag << " " << r.value);
    const std::string flag = std::string("--") + r.flag;
    const std::string message =
        "^bad value for " + flag + ": '" + r.value + "'\n$";
    EXPECT_EXIT(init_with({flag, r.value}), testing::ExitedWithCode(2),
                message);
    EXPECT_EXIT(init_with({flag + "=" + r.value}), testing::ExitedWithCode(2),
                message);
  }
}

TEST(BenchKnobs, VariableOutsideTlsimRangeExitsTwo) {
  for (const Rejected& r : kRejected) {
    SCOPED_TRACE(testing::Message() << r.env << "=" << r.value);
    const std::string message =
        std::string("^bad value for ") + r.env + ": '" + r.value + "'\n$";
    EXPECT_EXIT(
        {
          ::setenv(r.env, r.value, 1);
          (void)bench_iters();
          (void)bench_seed();
          (void)bench_jobs();
        },
        testing::ExitedWithCode(2), message);
    EXPECT_EXIT(
        {
          ::setenv(r.env, r.value, 1);
          init_with({});
        },
        testing::ExitedWithCode(2), message);
  }
  EXPECT_EXIT(
      {
        ::setenv("TLS_BENCH_PROGRESS", "2", 1);
        init_with({});
      },
      testing::ExitedWithCode(2), "^bad value for TLS_BENCH_PROGRESS: '2'\n$");
}

TEST(BenchKnobs, RangeEdgesAreRead) {
  EXPECT_EXIT(
      {
        ::setenv("TLS_BENCH_ITERS", "1000000", 1);
        ::setenv("TLS_BENCH_SEED", "4611686018427387903", 1);
        ::setenv("TLS_BENCH_JOBS", "4096", 1);
        const bool read = bench_iters() == 1'000'000 &&
                          bench_seed() == 4611686018427387903ull &&
                          bench_jobs() == 4096;
        std::exit(read ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
  EXPECT_EXIT(
      {
        ::setenv("TLS_BENCH_ITERS", "1", 1);
        ::setenv("TLS_BENCH_SEED", "0", 1);
        ::setenv("TLS_BENCH_JOBS", "0", 1);
        std::exit(bench_iters() == 1 && bench_seed() == 0 && bench_jobs() == 0
                      ? 0
                      : 1);
      },
      testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace tls::bench
