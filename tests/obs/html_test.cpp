// obs::report_html tests: the dashboard is one self-contained document
// (no external references, balanced markup, the report JSON embedded
// verbatim and script-safe), plus the tlsreport CLI's --html flag and
// --follow driven end-to-end with an injected between-poll hook that
// grows the trace file — no wall-clock sleeps anywhere. CLI output is
// checked against the batch oracle.
#include "obs/html.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/export.hpp"
#include "obs/report_cli.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"

namespace tls::obs {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::size_t count_substr(const std::string& haystack,
                         const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// A small but non-trivial report: one full synchronous iteration with
/// contention (mirrors the analysis_test fixture shape).
std::string small_report_json() {
  Tracer t;
  t.worker_compute(sim::Time{900}, net::HostId{1}, 0, 0, 0, sim::Time{200});
  t.barrier_enter(sim::Time{1000}, 0, 0, 0);
  t.flow_start(sim::Time{1100}, net::HostId{1}, net::HostId{0}, 0, 1, 101,
               net::Bytes{5000}, 0);
  t.chunk_enqueue(sim::Time{1100}, net::HostId{1}, 0, net::BandId{0}, 101, 0,
                  net::Bytes{5000});
  t.chunk_dequeue(sim::Time{1150}, net::HostId{1}, 0, net::BandId{0}, 101, 0,
                  net::Bytes{5000}, sim::Time{50});
  t.chunk_dequeue(sim::Time{1160}, net::HostId{1}, 1, net::BandId{2}, 999, 0,
                  net::Bytes{7777}, sim::Time{0});
  t.ingress_arrive(sim::Time{1250}, net::HostId{0}, 0, net::BandId{0}, 101, 0,
                   net::Bytes{5000});
  t.ingress_deliver(sim::Time{1300}, net::HostId{0}, 0, net::BandId{0}, 101,
                    0, net::Bytes{5000}, sim::Time{0}, sim::Time{50});
  t.flow_end(sim::Time{1300}, net::HostId{1}, net::HostId{0}, 0, 1, 101,
             net::Bytes{5000}, 0, sim::Time{200});
  t.barrier_release(sim::Time{2000}, 0, 0, 0, sim::Time{1000});
  return report_json(oracle::analyze(t.events()));
}

TEST(Html, SingleRunPageIsSelfContained) {
  std::string json = small_report_json();
  HtmlOptions opts;
  opts.title = "tlsreport: unit";
  opts.label_a = "unit";
  std::string html = report_html(json, "", opts);

  EXPECT_EQ(html.rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  // Exactly two scripts: the embedded JSON and the inline renderer.
  EXPECT_EQ(count_substr(html, "<script"), 2u);
  EXPECT_EQ(count_substr(html, "</script>"), 2u);
  EXPECT_NE(html.find("<script type=\"application/json\" id=\"tlsreport-a\">"),
            std::string::npos);
  // The report JSON is embedded verbatim (it contains no '<', so the
  // script-escape is the identity on it).
  EXPECT_EQ(json.find('<'), std::string::npos);
  EXPECT_NE(html.find(json), std::string::npos);
  // Self-contained: no external fetches of any kind.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("src="), std::string::npos);
  EXPECT_EQ(html.find("href="), std::string::npos);
  EXPECT_EQ(html.find("@import"), std::string::npos);
  // Static page: no auto-refresh.
  EXPECT_EQ(html.find("http-equiv=\"refresh\""), std::string::npos);
}

TEST(Html, HeatmapHasEgressIngressToggle) {
  // The blame heatmap is two-sided: an egress and an ingress pane behind
  // a button bar, egress shown by default — all inline, no new scripts.
  std::string json = small_report_json();
  std::string html = report_html(json, "", HtmlOptions{});
  EXPECT_NE(html.find("var SIDES = [\"egress\", \"ingress\"]"),
            std::string::npos);
  EXPECT_NE(html.find("show(\"egress\")"), std::string::npos)
      << "egress pane must be the default";
  EXPECT_NE(html.find("no egress-queue contention on any critical path"),
            std::string::npos);
  EXPECT_NE(html.find("no ingress fan-in contention on any critical path"),
            std::string::npos);
  EXPECT_EQ(count_substr(html, "<script"), 2u);
  EXPECT_EQ(html.find("src="), std::string::npos);
  EXPECT_EQ(html.find("href="), std::string::npos);
}

TEST(Html, DiffPageEmbedsBothReportsAndLabels) {
  std::string json = small_report_json();
  HtmlOptions opts;
  opts.label_a = "fifo";
  opts.label_b = "tls-one";
  std::string html = report_html(json, json, opts);
  EXPECT_NE(html.find("id=\"tlsreport-a\""), std::string::npos);
  EXPECT_NE(html.find("id=\"tlsreport-b\""), std::string::npos);
  EXPECT_NE(html.find("data-label-a=\"fifo\""), std::string::npos);
  EXPECT_NE(html.find("data-label-b=\"tls-one\""), std::string::npos);
  EXPECT_EQ(count_substr(html, "<script"), 3u);
}

TEST(Html, EscapesLabelsAndRefreshMeta) {
  HtmlOptions opts;
  opts.title = "a<b&\"c";
  opts.label_a = "x<y";
  opts.refresh_seconds = 2;
  std::string html = report_html("{\"schema\":\"tlsreport-v2\",\"jobs\":[]}\n",
                                 "", opts);
  EXPECT_EQ(html.find("a<b"), std::string::npos);
  EXPECT_NE(html.find("a&lt;b&amp;&quot;c"), std::string::npos);
  EXPECT_NE(html.find("x&lt;y"), std::string::npos);
  EXPECT_NE(html.find("<meta http-equiv=\"refresh\" content=\"2\">"),
            std::string::npos);
}

TEST(Html, JsonScriptEscapeForeclosesScriptTermination) {
  // A hostile label inside diff JSON must not be able to close the script
  // block early.
  std::string json =
      "{\"schema\":\"tlsreport-diff-v2\",\"a\":\"</script><script>\","
      "\"b\":\"b\",\"jobs\":[]}\n";
  std::string html = report_html(json, "", HtmlOptions{});
  EXPECT_EQ(html.find("</script><script>"), std::string::npos);
  EXPECT_NE(html.find("\\u003c/script>"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CLI: --html and --follow with an injected poll hook.

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun report_cli(std::vector<std::string> args,
                  const ReportCliHooks& hooks = {}) {
  std::vector<const char*> argv;
  argv.push_back("tlsreport");
  for (const std::string& a : args) argv.push_back(a.c_str());
  std::ostringstream out, err;
  int code = run_report_cli(static_cast<int>(argv.size()), argv.data(), out,
                            err, hooks);
  return {code, out.str(), err.str()};
}

/// Synthetic two-iteration trace reused by the CLI tests (no simulation:
/// these tests are about plumbing, not attribution).
void emit_cli_trace(Tracer& t) {
  for (std::int64_t iter = 0; iter < 2; ++iter) {
    sim::Time base{iter * 10000};
    t.worker_compute(base + sim::Time{0}, net::HostId{1}, 0, 0, iter,
                     sim::Time{200});
    t.barrier_enter(base + sim::Time{100}, 0, 0, iter);
    t.barrier_release(base + sim::Time{1100}, 0, 0, iter, sim::Time{1000});
  }
}

std::string cli_trace_csv() {
  Tracer t;
  emit_cli_trace(t);
  return trace_csv(t);
}

/// What the batch oracle reports for the CLI trace.
std::string cli_trace_oracle_json() {
  Tracer t;
  emit_cli_trace(t);
  return report_json(oracle::analyze(t.events()));
}

TEST(ReportCliHtml, WritesDashboardAndStreamMatchesBatch) {
  fs::path dir = fs::path(testing::TempDir()) / "tls_cli_html";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::path trace = dir / "trace.csv";
  std::ofstream(trace, std::ios::binary) << cli_trace_csv();

  fs::path html = dir / "out.html";
  fs::path json = dir / "out.json";

  CliRun r = report_cli({trace.string(), "--quiet", "--html", html.string(),
                         "--json", json.string()});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(read_file(json), cli_trace_oracle_json())
      << "tlsreport diverged from the batch oracle";

  std::string page = read_file(html);
  ASSERT_FALSE(page.empty());
  EXPECT_EQ(page.rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(page.find(read_file(json)), std::string::npos)
      << "dashboard must embed the exact report JSON";
}

TEST(ReportCliFollow, RendersGrowingTraceViaHook) {
  fs::path dir = fs::path(testing::TempDir()) / "tls_cli_follow";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::path trace = dir / "trace.csv";
  fs::path html = dir / "live.html";
  fs::path json = dir / "final.json";

  std::string csv = cli_trace_csv();
  // Split the file into three appends, the second ending mid-line.
  std::size_t first_cut = csv.find('\n', csv.size() / 3) + 1;
  std::size_t second_cut = (2 * csv.size()) / 3;  // deliberately mid-line
  std::vector<std::string> stages = {
      csv.substr(0, first_cut), csv.substr(first_cut, second_cut - first_cut),
      csv.substr(second_cut)};

  std::size_t stage = 0;
  ReportCliHooks hooks;
  hooks.sleep_ms = [&](int) {
    std::ofstream out(trace, std::ios::binary | std::ios::app);
    if (stage < stages.size()) out << stages[stage++];
  };

  // No file at the first poll; the hook then feeds one stage per "sleep";
  // --idle-polls stops the loop once appends dry up.
  CliRun r = report_cli({"--follow", trace.string(), "--html", html.string(),
                         "--json", json.string(), "--poll-ms", "1000",
                         "--idle-polls", "2", "--quiet"},
                        hooks);
  ASSERT_EQ(r.code, 0) << r.err;

  std::string page = read_file(html);
  ASSERT_FALSE(page.empty());
  EXPECT_EQ(page.rfind("<!doctype html>", 0), 0u);
  // The final render is static (the run is over).
  EXPECT_EQ(page.find("http-equiv=\"refresh\""), std::string::npos);

  // The finished follow report equals the batch oracle over the complete
  // file.
  EXPECT_EQ(read_file(json), cli_trace_oracle_json());
  EXPECT_NE(page.find(read_file(json)), std::string::npos);
}

TEST(ReportCliFollow, CarriesHealthTrailerIntoBannerAndJson) {
  // A sampled capture (tlsim --trace-sample) writes a #health trailer;
  // following that file must surface the trailer in the final JSON's
  // trace_health object and as the dashboard's incomplete-trace banner
  // plus the sampling note.
  Tracer t;
  t.set_sample_every(Cat::kQdisc, 2);  // what --trace-sample qdisc=2 sets
  for (std::int64_t iter = 0; iter < 2; ++iter) {
    sim::Time base{iter * 10000};
    t.worker_compute(base + sim::Time{0}, net::HostId{1}, 0, 0, iter,
                     sim::Time{200});
    t.barrier_enter(base + sim::Time{100}, 0, 0, iter);
    t.barrier_release(base + sim::Time{1100}, 0, 0, iter, sim::Time{1000});
  }
  for (int i = 0; i < 4; ++i) {  // every-2nd sampled out: 2 excluded
    t.band_service(sim::Time{500 + i}, net::HostId{0}, net::BandId{0},
                   net::Bytes{10});
  }
  t.set_max_events(t.events().size());  // cap reached: next record drops
  t.band_service(sim::Time{600}, net::HostId{0}, net::BandId{0},
                 net::Bytes{10});
  std::string csv = trace_csv(t);
  ASSERT_NE(csv.find("#health,dropped,total,1"), std::string::npos) << csv;
  ASSERT_NE(csv.find("#health,sampled,qdisc,2"), std::string::npos) << csv;

  fs::path dir = fs::path(testing::TempDir()) / "tls_cli_follow_health";
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::path trace = dir / "trace.csv";
  fs::path html = dir / "live.html";
  fs::path json = dir / "final.json";
  std::ofstream(trace, std::ios::binary) << csv;

  CliRun r = report_cli({"--follow", trace.string(), "--html", html.string(),
                         "--json", json.string(), "--poll-ms", "1000",
                         "--idle-polls", "1", "--quiet"});
  ASSERT_EQ(r.code, 0) << r.err;

  std::string doc = read_file(json);
  EXPECT_NE(doc.find("\"trace_health\":{\"dropped_total\":1"),
            std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"sampled_out_total\":2"), std::string::npos) << doc;

  std::string page = read_file(html);
  ASSERT_FALSE(page.empty());
  // The banner and note are rendered client-side from the embedded JSON;
  // the page must carry both the renderer strings and the health object.
  EXPECT_NE(page.find("WARNING: trace is incomplete"), std::string::npos);
  EXPECT_NE(page.find("capture sampling excluded"), std::string::npos);
  EXPECT_NE(page.find("\"trace_health\":{\"dropped_total\":1"),
            std::string::npos);
}

TEST(ReportCliFollow, UsageErrors) {
  CliRun no_html = report_cli({"--follow", "t.csv"});
  EXPECT_EQ(no_html.code, 2);
  EXPECT_NE(no_html.err.find("--follow requires --html"), std::string::npos);

  CliRun with_diff = report_cli({"--follow", "--diff", "a.csv", "b.csv"});
  EXPECT_EQ(with_diff.code, 2);
  EXPECT_NE(with_diff.err.find("mutually exclusive"), std::string::npos);

  CliRun bad_int = report_cli({"--follow", "t.csv", "--html", "o.html",
                               "--poll-ms", "soon"});
  EXPECT_EQ(bad_int.code, 2);
  EXPECT_NE(bad_int.err.find("bad value for --poll-ms: 'soon'"),
            std::string::npos);
}

}  // namespace
}  // namespace tls::obs
