#include "obs/report_cli.hpp"

#include <climits>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/html.hpp"
#include "obs/reader.hpp"
#include "obs/streaming.hpp"
#include "simcore/parse.hpp"

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
  std::string label_a;
  std::string label_b;
  int poll_ms = 500;
  int max_polls = 0;   // 0 = unlimited
  int idle_polls = 0;  // 0 = never stop on idle
  std::vector<std::string> flags;  // every --flag given, in order
  std::vector<std::string> inputs;
};

/// Why the chosen mode would ignore `flag`, or "" when it reads it.
std::string unread_flag(const CliConfig& cfg, const std::string& flag) {
  if ((flag == "--label-a" || flag == "--label-b") && !cfg.diff_mode) {
    return flag + " is only read with --diff";
  }
  if ((flag == "--poll-ms" || flag == "--max-polls" ||
       flag == "--idle-polls") &&
      !cfg.follow) {
    return flag + " is only read with --follow";
  }
  if (flag == "--csv" && cfg.follow) return "--csv is not read with --follow";
  return "";
}

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
  CliConfig cfg;

  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      err << "tlsreport: " << flag << " requires a value\n" << kUsage;
      return nullptr;
    }
    return argv[++i];
  };
  auto need_int = [&](int& i, const char* flag, int* slot) -> bool {
    const char* v = need_value(i, flag);
    if (v == nullptr) return false;
    // [0, INT_MAX]: the poll sleeper takes an int.
    if (!sim::parse_int(v, slot, 0)) {
      err << "tlsreport: " << flag
          << " expects a non-negative integer up to " << INT_MAX << ", got '"
          << v << "'\n"
          << kUsage;
      return false;
    }
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.starts_with("--")) cfg.flags.push_back(arg);
    if (arg == "--diff") {
      cfg.diff_mode = true;
    } else if (arg == "--follow") {
      cfg.follow = true;
    } else if (arg == "--quiet") {
      cfg.quiet = true;
    } else if (arg == "--csv") {
      const char* v = need_value(i, "--csv");
      if (v == nullptr) return 2;
      cfg.csv_path = v;
    } else if (arg == "--json") {
      const char* v = need_value(i, "--json");
      if (v == nullptr) return 2;
      cfg.json_path = v;
    } else if (arg == "--html") {
      const char* v = need_value(i, "--html");
      if (v == nullptr) return 2;
      cfg.html_path = v;
    } else if (arg == "--label-a") {
      const char* v = need_value(i, "--label-a");
      if (v == nullptr) return 2;
      cfg.label_a = v;
    } else if (arg == "--label-b") {
      const char* v = need_value(i, "--label-b");
      if (v == nullptr) return 2;
      cfg.label_b = v;
    } else if (arg == "--poll-ms") {
      if (!need_int(i, "--poll-ms", &cfg.poll_ms)) return 2;
    } else if (arg == "--max-polls") {
      if (!need_int(i, "--max-polls", &cfg.max_polls)) return 2;
    } else if (arg == "--idle-polls") {
      if (!need_int(i, "--idle-polls", &cfg.idle_polls)) return 2;
    } else if (arg == "--help" || arg == "-h") {
      out << kUsage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "tlsreport: unknown flag " << arg << "\n" << kUsage;
      return 2;
    } else {
      cfg.inputs.push_back(arg);
    }
  }

  if (cfg.follow && cfg.diff_mode) {
    err << "tlsreport: --follow and --diff are mutually exclusive\n"
        << kUsage;
    return 2;
  }

  for (const std::string& flag : cfg.flags) {
    std::string why = unread_flag(cfg, flag);
    if (!why.empty()) {
      err << "tlsreport: " << why << "\n" << kUsage;
      return 2;
    }
  }

  std::size_t expected = cfg.diff_mode ? 2u : 1u;
  if (cfg.inputs.size() != expected) {
    err << "tlsreport: expected " << expected << " trace CSV path"
        << (expected == 1 ? "" : "s") << ", got " << cfg.inputs.size() << "\n"
        << kUsage;
    return 2;
  }

  if (cfg.follow) {
    if (cfg.html_path.empty()) {
      err << "tlsreport: --follow requires --html PATH (the live "
             "dashboard)\n"
          << kUsage;
      return 2;
    }
    return run_follow(cfg, hooks, out, err);
  }

  // Events flow straight from the chunked reader into the streaming
  // engine; the trace is never materialized.
  std::vector<RunReport> reports;
  for (const std::string& path : cfg.inputs) {
    StreamingAnalyzer analyzer;
    TraceHealth health;
    std::string error;
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
    if (cfg.label_a.empty()) cfg.label_a = label_from_path(cfg.inputs[0]);
    if (cfg.label_b.empty()) cfg.label_b = label_from_path(cfg.inputs[1]);
    DiffReport d =
        diff_reports(reports[0], reports[1], cfg.label_a, cfg.label_b);
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
      opts.title = "tlsreport diff: " + cfg.label_a + " vs " + cfg.label_b;
      opts.label_a = cfg.label_a;
      opts.label_b = cfg.label_b;
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
