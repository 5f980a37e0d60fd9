// Command-line core of the `tlsreport` tool, kept in the library so tests
// drive it without spawning processes. The tools/tlsreport.cpp main is a
// two-line trampoline into run_report_cli().
//
// Usage:
//   tlsreport <trace.csv> [--csv PATH] [--json PATH] [--html PATH]
//             [--quiet]
//   tlsreport --follow <trace.csv> --html PATH [--poll-ms N]
//             [--max-polls N] [--idle-polls N] [--json PATH] [--quiet]
//   tlsreport --diff <a.csv> <b.csv> [--label-a NAME] [--label-b NAME]
//             [--csv PATH] [--json PATH] [--html PATH] [--quiet]
//
// Analyzes one run's trace CSV (or compares two) and prints the text
// report to `out`; --csv/--json/--html additionally write the
// machine-readable and dashboard forms. Every mode streams the file
// through obs::StreamingAnalyzer, so memory stays bounded by the in-flight
// iterations rather than the trace length; --follow tails a growing trace
// CSV, re-rendering the --html dashboard as new iterations finalize.
//
// Arguments follow the rule every front end shares (simcore/flags.hpp):
// --k v and --k=v alike, the last occurrence wins, a switch never takes a
// value, and an empty or missing value is an error. Each mode accepts only
// the flags it reads. Exit codes: 0 success (and --help / -h), 2 usage or
// input error; a usage error prints the usage text after its message.
//
// The library never sleeps or reads wall clocks (determinism lint); the
// pause between --follow polls is injected by the caller through
// ReportCliHooks — tools/tlsreport.cpp passes a real sleeper, tests pass a
// hook that appends trace rows instead.
#pragma once

#include <functional>
#include <ostream>

namespace tls::obs {

struct ReportCliHooks {
  /// Called between --follow polls with the configured poll interval.
  /// Null means polls run back-to-back (tests drive file growth here).
  std::function<void(int poll_ms)> sleep_ms;
};

int run_report_cli(int argc, const char* const* argv, std::ostream& out,
                   std::ostream& err);
int run_report_cli(int argc, const char* const* argv, std::ostream& out,
                   std::ostream& err, const ReportCliHooks& hooks);

}  // namespace tls::obs
