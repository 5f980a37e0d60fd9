#include "obs/report_cli.hpp"

#include <algorithm>
#include <climits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/html.hpp"
#include "obs/reader.hpp"
#include "obs/streaming.hpp"
#include "simcore/flags.hpp"

namespace tls::obs {

namespace {

constexpr const char* kUsage =
    "usage: tlsreport <trace.csv> [--csv PATH] [--json PATH] [--html PATH]\n"
    "                 [--quiet]\n"
    "       tlsreport --follow <trace.csv> --html PATH [--poll-ms N]\n"
    "                 [--max-polls N] [--idle-polls N] [--json PATH] "
    "[--quiet]\n"
    "       tlsreport --diff <a.csv> <b.csv> [--label-a NAME] "
    "[--label-b NAME]\n"
    "                 [--csv PATH] [--json PATH] [--html PATH] [--quiet]\n"
    "\n"
    "Post-hoc straggler attribution from a tlsim trace CSV (--trace-csv):\n"
    "per-iteration critical-path decomposition and contention blame, or an\n"
    "aligned two-run policy diff. Text goes to stdout; --csv/--json write\n"
    "the machine-readable forms and --html a self-contained dashboard.\n"
    "Memory stays bounded by the in-flight iterations, not the trace\n"
    "length. --follow tails a growing trace, re-rendering the dashboard as\n"
    "iterations finalize (stops after --max-polls polls or --idle-polls\n"
    "polls without growth; 0 = no limit).\n";

/// obs::write_file, its failure reported as a tlsreport error.
bool write_output(const std::string& path, const std::string& content,
                  std::ostream& err) {
  std::string error;
  if (write_file(path, content, &error)) return true;
  err << "tlsreport: " << error << "\n";
  return false;
}

/// Derives a short run label from a path: basename without extension.
std::string label_from_path(const std::string& path) {
  std::size_t slash = path.find_last_of("/\\");
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  std::size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

struct CliConfig {
  bool diff_mode = false;
  bool follow = false;
  bool quiet = false;
  std::string csv_path;
  std::string json_path;
  std::string html_path;
  int poll_ms = 500;
  int max_polls = 0;   // 0 = unlimited
  int idle_polls = 0;  // 0 = never stop on idle
  std::vector<std::string> inputs;
};

// Flag tables: each mode accepts exactly the flags it reads, like a tlsim
// command, so --csv with --follow or --label-a without --diff fails with
// the mode's list instead of being ignored.
constexpr std::string_view kSwitches[] = {"diff", "follow", "quiet", "help"};
constexpr std::string_view kValueFlags[] = {
    "csv",     "json",      "html",      "label-a",
    "label-b", "poll-ms",   "max-polls", "idle-polls"};
constexpr std::string_view kOneFlags[] = {"csv", "json", "html", "quiet"};
constexpr std::string_view kDiffFlags[] = {"diff",    "label-a", "label-b",
                                           "csv",     "json",    "html",
                                           "quiet"};
constexpr std::string_view kFollowFlags[] = {
    "follow", "html", "poll-ms", "max-polls", "idle-polls", "json", "quiet"};

struct Mode {
  std::string_view label;
  std::span<const std::string_view> flags;
};
constexpr Mode kOne{"tlsreport", kOneFlags};
constexpr Mode kDiff{"tlsreport --diff", kDiffFlags};
constexpr Mode kFollow{"tlsreport --follow", kFollowFlags};

/// Tails `path` with a StreamingAnalyzer, re-rendering the dashboard
/// whenever a poll delivered new events. Returns the exit code.
int run_follow(const CliConfig& cfg, const ReportCliHooks& hooks,
               std::ostream& out, std::ostream& err) {
  const std::string& path = cfg.inputs[0];
  StreamingAnalyzer analyzer;
  TraceCsvTail tail(path);
  HtmlOptions html_opts;
  html_opts.title = "tlsreport: " + label_from_path(path);
  html_opts.label_a = label_from_path(path);
  html_opts.refresh_seconds = cfg.poll_ms >= 1000 ? cfg.poll_ms / 1000 : 1;

  long polls = 0;
  long idle = 0;
  std::uint64_t seen = 0;
  for (;;) {
    std::string error;
    bool ok =
        tail.poll([&analyzer](const TraceEvent& e) { analyzer.ingest(e); },
                  &error);
    if (!ok) {
      // "cannot open" just means the writer has not created the file yet;
      // anything else is a malformed line and will never get better.
      if (error.find("cannot open") == std::string::npos) {
        err << "tlsreport: " << error << "\n";
        return 2;
      }
    }
    ++polls;
    if (tail.events_read() != seen) {
      seen = tail.events_read();
      idle = 0;
      analyzer.set_health(tail.health());
      RunReport snap = analyzer.snapshot();
      if (!write_output(cfg.html_path,
                        report_html(report_json(snap), "", html_opts), err)) {
        return 2;
      }
    } else {
      ++idle;
    }
    if (cfg.max_polls > 0 && polls >= cfg.max_polls) break;
    if (cfg.idle_polls > 0 && idle >= cfg.idle_polls) break;
    if (hooks.sleep_ms) hooks.sleep_ms(cfg.poll_ms);
  }

  analyzer.set_health(tail.health());
  RunReport final_report = analyzer.finish();
  HtmlOptions final_opts = html_opts;
  final_opts.refresh_seconds = 0;  // the run is over; stop reloading
  if (!write_output(cfg.html_path,
                    report_html(report_json(final_report), "", final_opts),
                    err)) {
    return 2;
  }
  if (!cfg.quiet) out << report_text(final_report);
  if (!cfg.json_path.empty() &&
      !write_output(cfg.json_path, report_json(final_report), err)) {
    return 2;
  }
  return 0;
}

}  // namespace

int run_report_cli(int argc, const char* const* argv, std::ostream& out,
                   std::ostream& err) {
  return run_report_cli(argc, argv, out, err, ReportCliHooks{});
}

int run_report_cli(int argc, const char* const* argv, std::ostream& out,
                   std::ostream& err, const ReportCliHooks& hooks) {
  sim::CliArgs args;
  std::string error;
  auto usage_error = [&]() {
    err << "tlsreport: " << error << "\n" << kUsage;
    return 2;
  };
  if (!sim::parse_args(std::vector<std::string>(argv + 1, argv + argc),
                       kSwitches, kValueFlags, &args, &error)) {
    return usage_error();
  }
  if (args.has("help") || std::ranges::count(args.positional, "-h") > 0) {
    out << kUsage;
    return 0;
  }

  CliConfig cfg;
  cfg.diff_mode = args.has("diff");
  cfg.follow = args.has("follow");
  if (cfg.follow && cfg.diff_mode) {
    error = "--follow and --diff are mutually exclusive";
    return usage_error();
  }
  const Mode& mode = cfg.follow ? kFollow : cfg.diff_mode ? kDiff : kOne;
  if (!sim::check_flags(args, mode.label, mode.flags, &error)) {
    return usage_error();
  }

  cfg.quiet = args.has("quiet");
  cfg.csv_path = args.get("csv");
  cfg.json_path = args.get("json");
  cfg.html_path = args.get("html");
  cfg.inputs = args.positional;
  // [0, INT_MAX]: the poll sleeper takes an int.
  sim::FlagReader flags(args);
  cfg.poll_ms = static_cast<int>(flags.integer("poll-ms", 500, 0, INT_MAX));
  cfg.max_polls = static_cast<int>(flags.integer("max-polls", 0, 0, INT_MAX));
  cfg.idle_polls =
      static_cast<int>(flags.integer("idle-polls", 0, 0, INT_MAX));
  if (!flags.ok(&error)) return usage_error();

  std::size_t expected = cfg.diff_mode ? 2u : 1u;
  if (cfg.inputs.size() != expected) {
    error = "expected " + std::to_string(expected) + " trace CSV path" +
            (expected == 1 ? "" : "s") + ", got " +
            std::to_string(cfg.inputs.size());
    return usage_error();
  }

  if (cfg.follow) {
    if (cfg.html_path.empty()) {
      error = "--follow requires --html PATH (the live dashboard)";
      return usage_error();
    }
    return run_follow(cfg, hooks, out, err);
  }

  // Events flow straight from the chunked reader into the streaming
  // engine; the trace is never materialized.
  std::vector<RunReport> reports;
  for (const std::string& path : cfg.inputs) {
    StreamingAnalyzer analyzer;
    TraceHealth health;
    if (!for_each_trace_csv_event(
            path, [&analyzer](const TraceEvent& e) { analyzer.ingest(e); },
            &health, &error)) {
      err << "tlsreport: " << error << "\n";
      return 2;
    }
    analyzer.set_health(health);
    reports.push_back(analyzer.finish());
  }

  if (cfg.diff_mode) {
    std::string label_a = args.get("label-a", label_from_path(cfg.inputs[0]));
    std::string label_b = args.get("label-b", label_from_path(cfg.inputs[1]));
    DiffReport d = diff_reports(reports[0], reports[1], label_a, label_b);
    if (!cfg.quiet) out << diff_text(d);
    if (!cfg.csv_path.empty() &&
        !write_output(cfg.csv_path, diff_csv(d), err)) {
      return 2;
    }
    if (!cfg.json_path.empty() &&
        !write_output(cfg.json_path, diff_json(d), err)) {
      return 2;
    }
    if (!cfg.html_path.empty()) {
      HtmlOptions opts;
      opts.title = "tlsreport diff: " + label_a + " vs " + label_b;
      opts.label_a = label_a;
      opts.label_b = label_b;
      if (!write_output(cfg.html_path,
                        report_html(report_json(reports[0]),
                                    report_json(reports[1]), opts),
                        err)) {
        return 2;
      }
    }
    return 0;
  }

  const RunReport& r = reports[0];
  if (!cfg.quiet) out << report_text(r);
  if (!cfg.csv_path.empty() &&
      !write_output(cfg.csv_path, report_csv(r), err)) {
    return 2;
  }
  if (!cfg.json_path.empty() &&
      !write_output(cfg.json_path, report_json(r), err)) {
    return 2;
  }
  if (!cfg.html_path.empty()) {
    HtmlOptions opts;
    opts.title = "tlsreport: " + label_from_path(cfg.inputs[0]);
    opts.label_a = label_from_path(cfg.inputs[0]);
    if (!write_output(cfg.html_path, report_html(report_json(r), "", opts),
                      err)) {
      return 2;
    }
  }
  return 0;
}

}  // namespace tls::obs
