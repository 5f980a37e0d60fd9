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
// cli.cpp) and rejects any other with the list of valid ones. Arguments
// are split by the reader every front end shares (simcore/flags.hpp), so a
// flag may come before the command.
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

/// Executes a tlsim invocation. `args` excludes the program name.
/// Returns the process exit code: 0 ok, 1 the run failed (its message is
/// on `err`), 2 usage error, including a positional argument after the
/// command.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace tls::runtime
