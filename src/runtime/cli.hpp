// tlsim command-line front end (library part, testable without a process).
//
// Commands:
//   tlsim run              one experiment, full report
//   tlsim compare          FIFO vs TLs-One vs TLs-RR on one configuration
//   tlsim sweep-placement  Table I placements under every policy
//   tlsim sweep-batch      local batch sizes under every policy
//   tlsim scenario         trace-driven dynamic cluster
//   tlsim help
//
// Each command accepts only the flags it reads (one table per command in
// cli.cpp) and rejects any other with the list of valid ones.
//
// Common flags (with defaults matching the paper's testbed):
//   --hosts N (21) --jobs N (21) --workers N (20) --ps N (1)
//   --batch N (4) --iters N (60) --placement IDX (1) --seed N (1)
//   --policy fifo|tls-one|tls-rr (tls-rr)
//   --strategy arrival|random|smallest (arrival)
//   --bands N (6) --interval-s X (10) --link-gbps X (10)
//   --replicas N (1) --background --csv
//
// Host-execution flags (results are byte-identical at any
// thread count):
//   --threads N (0 = hardware concurrency)
//   --progress
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace tls::runtime {

/// Parsed key-value flags ("--key value" or "--key=value"; bare "--key"
/// maps to "true"). Positional arguments are collected separately.
struct CliArgs {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  /// Last value of a flag, or `fallback` when absent.
  std::string get(const std::string& key, const std::string& fallback = "") const;
  bool has(const std::string& key) const;
};

/// Splits raw arguments (excluding argv[0]) into CliArgs. Returns false
/// and writes a message when a flag is malformed, including a switch
/// (--csv, --background, --progress, --scenario-compare) given a value.
bool parse_args(const std::vector<std::string>& raw, CliArgs* out,
                std::string* error);

/// Executes a tlsim invocation. `args` excludes the program name.
/// Returns the process exit code: 0 ok, 1 the run failed (its message is
/// on `err`), 2 usage error.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace tls::runtime
