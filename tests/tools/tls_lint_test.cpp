// Unit tests for the determinism lint: every banned pattern is seeded into
// a synthetic source and must be caught; clean idioms must not be flagged;
// the allowlist must silence exactly what it names.
#include "tls_lint_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

namespace tls::lint {
namespace {

bool has_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

int line_of(const std::vector<Finding>& fs, const std::string& rule) {
  for (const Finding& f : fs) {
    if (f.rule == rule) return f.line;
  }
  return -1;
}

TEST(TlsLint, CatchesWallClockReads) {
  std::string src =
      "#include <chrono>\n"
      "double now_s() {\n"
      "  auto t = std::chrono::steady_clock::now();\n"
      "  return std::chrono::duration<double>(t.time_since_epoch()).count();\n"
      "}\n";
  auto findings = lint_source("net/bad.cpp", src);
  ASSERT_TRUE(has_rule(findings, "wall-clock"));
  EXPECT_EQ(line_of(findings, "wall-clock"), 3);
}

TEST(TlsLint, CatchesBareTimeAndClockCalls) {
  auto f1 = lint_source("net/bad.cpp", "long t = time(nullptr);\n");
  EXPECT_TRUE(has_rule(f1, "wall-clock"));
  auto f2 = lint_source("net/bad.cpp", "long t = std::time(nullptr);\n");
  EXPECT_TRUE(has_rule(f2, "wall-clock"));
  auto f3 = lint_source("net/bad.cpp", "long c = clock();\n");
  EXPECT_TRUE(has_rule(f3, "wall-clock"));
}

TEST(TlsLint, DoesNotFlagSimTimeHelpers) {
  std::string src =
      "sim::Time t = transmit_time(bytes, rate);\n"
      "sim::Time u = q.peek_time();\n"
      "std::string s = format_time(t);\n"
      "sim::Time v = sim_.now();\n";
  auto findings = lint_source("net/good.cpp", src);
  EXPECT_FALSE(has_rule(findings, "wall-clock")) << format_findings(findings);
}

TEST(TlsLint, CatchesRawRngOutsideRngModule) {
  auto f1 = lint_source("net/bad.cpp", "int r = rand() % 6;\n");
  EXPECT_TRUE(has_rule(f1, "banned-rng"));
  auto f2 = lint_source("dl/bad.cpp", "std::random_device rd;\n");
  EXPECT_TRUE(has_rule(f2, "banned-rng"));
  auto f3 = lint_source("workload/bad.cpp", "std::mt19937 gen(42);\n");
  EXPECT_TRUE(has_rule(f3, "banned-rng"));
}

TEST(TlsLint, RngModuleIsExemptFromRngRule) {
  // The hand-rolled generator implementation is the one sanctioned place
  // for raw machinery.
  auto findings =
      lint_source("simcore/rng.cpp", "std::mt19937 reference_gen(1);\n");
  EXPECT_FALSE(has_rule(findings, "banned-rng"));
}

TEST(TlsLint, CatchesDefaultSeededRngConstruction) {
  // `Rng()` / `Rng{}` fall back to the fixed default seed, so every such
  // generator produces identical correlated draws.
  auto f1 = lint_source("net/bad.cpp", "sim::Rng r = sim::Rng();\n");
  EXPECT_TRUE(has_rule(f1, "banned-rng")) << format_findings(f1);
  auto f2 = lint_source("scenario/bad.cpp", "auto r = sim::Rng{};\n");
  EXPECT_TRUE(has_rule(f2, "banned-rng")) << format_findings(f2);
  auto f3 = lint_source("dl/bad.cpp", "use(Rng());\n");
  EXPECT_TRUE(has_rule(f3, "banned-rng")) << format_findings(f3);
}

TEST(TlsLint, DoesNotFlagSeededRngOrPlainDeclarations) {
  std::string src =
      "sim::Rng seeded(7);\n"
      "sim::Rng forked = root.fork(\"stream\");\n"
      "sim::Rng rng_;\n";  // member decl, re-seeded in the ctor initializer
  auto findings = lint_source("net/good.cpp", src);
  EXPECT_FALSE(has_rule(findings, "banned-rng")) << format_findings(findings);
}

TEST(TlsLint, RngModuleMayDefaultConstruct) {
  // The generator's own header declares the defaulted constructor.
  auto findings = lint_source("simcore/rng.hpp",
                              "explicit Rng(std::uint64_t seed = 1); Rng();\n");
  EXPECT_FALSE(has_rule(findings, "banned-rng")) << format_findings(findings);
}

TEST(TlsLint, DoesNotFlagOperandLikeIdentifiers) {
  auto findings = lint_source(
      "net/good.cpp", "int operand(int x);\nint y = my_rand(3);\n");
  EXPECT_FALSE(has_rule(findings, "banned-rng")) << format_findings(findings);
}

TEST(TlsLint, FindsUnorderedDeclarations) {
  std::string src =
      "std::unordered_map<FlowId, FlowQueue> flows_;\n"
      "std::unordered_set<int> seen_;\n"
      "std::unordered_map<int, std::vector<std::pair<int, int>>> nested_;\n"
      "using Alias = std::unordered_map<int, int>;\n";
  auto names = unordered_decl_names(src);
  EXPECT_EQ(names, (std::vector<std::string>{"flows_", "nested_", "seen_"}));
}

TEST(TlsLint, CatchesUnorderedIterationInHotPaths) {
  std::string src =
      "std::unordered_map<int, int> flows_;\n"
      "void f() {\n"
      "  for (auto& [id, q] : flows_) { (void)id; (void)q; }\n"
      "}\n";
  auto findings = lint_source("net/bad.cpp", src);
  ASSERT_TRUE(has_rule(findings, "unordered-iteration"));
  EXPECT_EQ(line_of(findings, "unordered-iteration"), 3);
}

TEST(TlsLint, CatchesBeginIterationViaCompanionHeaderDecl) {
  // The member is declared in the header; the .cpp only iterates it.
  std::string src = "void f() { auto it = flows_.begin(); use(it); }\n";
  auto findings = lint_source("simcore/bad.cpp", src, {"flows_"});
  EXPECT_TRUE(has_rule(findings, "unordered-iteration"));
}

TEST(TlsLint, ObsDirIsHotPathForUnorderedIteration) {
  // Exporter iteration order feeds byte-identical trace/metrics files, so
  // src/obs gets the same scrutiny as the simulator hot paths.
  std::string src =
      "std::unordered_map<int, long> counters_;\n"
      "void dump() {\n"
      "  for (auto& [k, v] : counters_) { emit(k, v); }\n"
      "}\n";
  auto findings = lint_source("obs/bad.cpp", src);
  ASSERT_TRUE(has_rule(findings, "unordered-iteration"))
      << format_findings(findings);
  EXPECT_EQ(line_of(findings, "unordered-iteration"), 3);
  // Nested path form, and .begin() via a companion-header declaration.
  auto nested = lint_source("src/obs/bad.cpp", src);
  EXPECT_TRUE(has_rule(nested, "unordered-iteration"));
  auto begin = lint_source(
      "obs/bad.cpp", "void f() { auto it = counters_.begin(); use(it); }\n",
      {"counters_"});
  EXPECT_TRUE(has_rule(begin, "unordered-iteration"));
}

TEST(TlsLint, AllowsUnorderedIterationOutsideHotPaths) {
  std::string src =
      "std::unordered_map<int, int> index_;\n"
      "void f() {\n"
      "  for (auto& [k, v] : index_) { (void)k; (void)v; }\n"
      "}\n";
  auto findings = lint_source("metrics/report.cpp", src);
  EXPECT_FALSE(has_rule(findings, "unordered-iteration"));
}

TEST(TlsLint, AllowsKeyedLookupOnUnorderedContainers) {
  std::string src =
      "std::unordered_map<int, int> flows_;\n"
      "void f(int k) { auto it = flows_.find(k); flows_.erase(it); }\n";
  auto findings = lint_source("net/good.cpp", src);
  EXPECT_FALSE(has_rule(findings, "unordered-iteration"))
      << format_findings(findings);
}

TEST(TlsLint, CatchesFloatTimeComparison) {
  auto f1 = lint_source("net/bad.cpp",
                        "if (to_seconds(a) == to_seconds(b)) sync();\n");
  EXPECT_TRUE(has_rule(f1, "float-time-compare"));
  auto f2 = lint_source(
      "net/bad.cpp", "float t = static_cast<float>(sim_.now());\n");
  EXPECT_TRUE(has_rule(f2, "float-time-compare"));
}

TEST(TlsLint, AllowsOrderedFloatTimeMath) {
  auto findings = lint_source(
      "net/good.cpp",
      "double dt = to_seconds(now - last);\nif (dt <= 0) return;\n");
  EXPECT_FALSE(has_rule(findings, "float-time-compare"));
}

TEST(TlsLint, CatchesThreadingOutsideRuntime) {
  auto f1 = lint_source("net/bad.cpp", "std::thread t([] {});\n");
  EXPECT_TRUE(has_rule(f1, "threading-outside-runtime"));
  auto f2 = lint_source("simcore/bad.cpp", "std::mutex mu_;\n");
  EXPECT_TRUE(has_rule(f2, "threading-outside-runtime"));
  auto f3 = lint_source("tensorlights/bad.cpp",
                        "std::atomic<int> pending_{0};\n");
  EXPECT_TRUE(has_rule(f3, "threading-outside-runtime"));
  auto f4 = lint_source("net/bad.cpp", "#include <thread>\nint x;\n");
  ASSERT_TRUE(has_rule(f4, "threading-outside-runtime"));
  EXPECT_EQ(line_of(f4, "threading-outside-runtime"), 1);
}

TEST(TlsLint, RuntimeDirIsExemptFromThreadingRule) {
  std::string src =
      "#include <atomic>\n"
      "#include <mutex>\n"
      "#include <thread>\n"
      "std::mutex mu_;\n"
      "std::vector<std::thread> workers_;\n"
      "std::atomic<std::size_t> next{0};\n"
      "std::vector<std::jthread> threads;\n";
  auto findings = lint_source("runtime/runner.cpp", src);
  EXPECT_FALSE(has_rule(findings, "threading-outside-runtime"))
      << format_findings(findings);
}

TEST(TlsLint, DoesNotFlagThreadLikeIdentifiers) {
  // Unqualified words and non-std qualifications are not threading
  // primitives; neither are longer identifiers containing a banned stem.
  std::string src =
      "int thread = 3;\n"
      "tls::sim::FutureEvent future;\n"
      "int hardware_threads = my::thread::count();\n"
      "bool async = spec.async_mode;\n"
      "int std_mutex_count = 0;\n";
  auto findings = lint_source("net/good.cpp", src);
  EXPECT_FALSE(has_rule(findings, "threading-outside-runtime"))
      << format_findings(findings);
}

TEST(TlsLint, AllowlistSilencesThreadingRule) {
  Finding f{"metrics/sampler.cpp", 7, "threading-outside-runtime", "msg"};
  auto entries =
      parse_allowlist("metrics/sampler.cpp:threading-outside-runtime\n");
  EXPECT_TRUE(is_allowed(f, entries));
  Finding other{"metrics/sampler.cpp", 7, "wall-clock", "msg"};
  EXPECT_FALSE(is_allowed(other, entries));
}

TEST(TlsLint, CatchesMissingPragmaOnce) {
  auto findings = lint_source("net/bad.hpp", "struct X {};\n");
  ASSERT_TRUE(has_rule(findings, "missing-pragma-once"));
  EXPECT_EQ(line_of(findings, "missing-pragma-once"), 0);
  auto ok = lint_source("net/good.hpp", "#pragma once\nstruct X {};\n");
  EXPECT_FALSE(has_rule(ok, "missing-pragma-once"));
}

TEST(TlsLint, IgnoresBannedPatternsInCommentsAndStrings) {
  std::string src =
      "// never call rand() or read steady_clock here\n"
      "/* std::random_device is banned */\n"
      "const char* msg = \"time(nullptr) is not simulation time\";\n";
  auto findings = lint_source("net/good.cpp", src);
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(TlsLint, AllowlistSilencesByPathAndRule) {
  Finding f{"net/legacy.cpp", 10, "wall-clock", "msg"};
  auto entries = parse_allowlist(
      "# comment\n"
      "net/legacy.cpp:wall-clock  # timing a real benchmark\n");
  EXPECT_TRUE(is_allowed(f, entries));
  Finding other{"net/legacy.cpp", 10, "banned-rng", "msg"};
  EXPECT_FALSE(is_allowed(other, entries));
  // Whole-file entry silences every rule.
  auto file_wide = parse_allowlist("net/legacy.cpp\n");
  EXPECT_TRUE(is_allowed(other, file_wide));
  // Suffix must align on a path-segment boundary.
  Finding subnet{"subnet/port.cpp", 1, "wall-clock", "msg"};
  auto seg = parse_allowlist("net/port.cpp\n");
  EXPECT_FALSE(is_allowed(subnet, seg));
}

// End-to-end: seed a violating file into a temp tree, run lint_tree, and
// watch the violation get caught — then allowlist it and watch it pass.
TEST(TlsLint, TreeScanCatchesSeededViolation) {
  namespace fs = std::filesystem;
  fs::path root = fs::path(testing::TempDir()) / "tls_lint_seeded";
  fs::remove_all(root);
  fs::create_directories(root / "net");
  {
    std::ofstream good(root / "net" / "good.hpp");
    good << "#pragma once\ninline int f() { return 1; }\n";
    std::ofstream hdr(root / "net" / "bad.hpp");
    hdr << "#pragma once\n#include <unordered_map>\n"
        << "struct S { std::unordered_map<int, int> flows_; void g(); };\n";
    std::ofstream bad(root / "net" / "bad.cpp");
    bad << "#include \"bad.hpp\"\n"
        << "void S::g() {\n"
        << "  int x = rand();\n"
        << "  for (auto& [k, v] : flows_) { x += k + v; }\n"
        << "}\n";
  }

  auto findings = lint_tree(root, {});
  EXPECT_TRUE(has_rule(findings, "banned-rng")) << format_findings(findings);
  EXPECT_TRUE(has_rule(findings, "unordered-iteration"))
      << format_findings(findings);
  // The companion-header declaration was picked up for the .cpp scan.
  EXPECT_EQ(line_of(findings, "unordered-iteration"), 4);
  // good.hpp contributed nothing.
  for (const Finding& f : findings) EXPECT_EQ(f.file, "net/bad.cpp");

  auto allow = parse_allowlist("net/bad.cpp:banned-rng\n");
  auto remaining = lint_tree(root, allow);
  EXPECT_FALSE(has_rule(remaining, "banned-rng"));
  EXPECT_TRUE(has_rule(remaining, "unordered-iteration"));

  fs::remove_all(root);
}

// The deterministic output contract of the lint itself: findings are sorted.
TEST(TlsLint, FindingsAreSorted) {
  namespace fs = std::filesystem;
  fs::path root = fs::path(testing::TempDir()) / "tls_lint_sorted";
  fs::remove_all(root);
  fs::create_directories(root / "net");
  {
    std::ofstream a(root / "net" / "a.cpp");
    a << "int x = rand();\nlong t = time(nullptr);\n";
    std::ofstream b(root / "net" / "b.cpp");
    b << "int y = srand(1), z = 0;\n";
  }
  auto findings = lint_tree(root, {});
  ASSERT_GE(findings.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      findings.begin(), findings.end(), [](const Finding& x, const Finding& y) {
        return std::tie(x.file, x.line, x.rule) <
               std::tie(y.file, y.line, y.rule);
      }));
  fs::remove_all(root);
}

TEST(TlsLint, IgnoresBannedPatternsInRawStrings) {
  // Raw string literals have no escapes; the scanner must track the
  // )delim" terminator, not the first '"'.
  std::string src =
      "const char* doc = R\"(call rand() or time(nullptr) here)\";\n"
      "const char* sql = R\"sql(select std::mt19937 from x)sql\";\n"
      "int ok = 1;\n";
  auto findings = lint_source("net/good.cpp", src);
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(TlsLint, IgnoresBannedPatternsInMultiLineBlockComments) {
  std::string src =
      "/* This block spans lines and mentions\n"
      "   rand() and std::random_device and\n"
      "   steady_clock without using them. */\n"
      "int ok = 1;\n";
  auto findings = lint_source("net/good.cpp", src);
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(TlsLint, LineCommentWithBannedTokenIsClean) {
  auto findings = lint_source(
      "net/good.cpp", "int x = 3;  // not rand(), not time(nullptr)\n");
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(TlsLint, CatchesRawValueEscapeOutsideUnitsLayer) {
  auto f1 = lint_source("net/bad.cpp", "double d = rate.raw() * 2.0;\n");
  ASSERT_TRUE(has_rule(f1, "unit-escape")) << format_findings(f1);
  EXPECT_EQ(line_of(f1, "unit-escape"), 1);
  auto f2 = lint_source("dl/bad.cpp", "auto n = total().raw();\n");
  EXPECT_TRUE(has_rule(f2, "unit-escape"));
}

TEST(TlsLint, UnitsLayerMayUseRaw) {
  for (const char* path :
       {"net/units.hpp", "simcore/time.hpp", "simcore/strong.hpp",
        "src/net/units.hpp"}) {
    auto findings = lint_source(path, "double d = rate.raw();\n");
    EXPECT_FALSE(has_rule(findings, "unit-escape")) << path;
  }
}

TEST(TlsLint, RawEscapeInCommentOrStringIsClean) {
  auto findings = lint_source(
      "net/good.cpp",
      "// .raw() is the escape hatch\nconst char* s = \"x.raw()\";\n");
  EXPECT_FALSE(has_rule(findings, "unit-escape")) << format_findings(findings);
}

TEST(TlsLint, FindingsToJsonEscapesAndSorts) {
  std::vector<Finding> fs{
      {"net/a.cpp", 3, "wall-clock", "message with \"quotes\"\nand newline"}};
  std::string json = findings_to_json(fs);
  EXPECT_NE(json.find("\"file\": \"net/a.cpp\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos) << json;
  EXPECT_EQ(findings_to_json({}), "[]\n");
}

TEST(TlsLint, StaleAllowEntriesAreReported) {
  std::vector<Finding> findings{{"net/a.cpp", 3, "wall-clock", "m"}};
  auto entries = parse_allowlist(
      "net/a.cpp:wall-clock\n"     // still earns its keep
      "net/gone.cpp:banned-rng\n"  // silences nothing -> stale
      "dl/also_gone.cpp\n");
  auto stale = stale_allow_entries(entries, findings);
  ASSERT_EQ(stale.size(), 2u);
  EXPECT_EQ(stale[0].path_suffix, "net/gone.cpp");
  EXPECT_EQ(stale[0].rule, "banned-rng");
  EXPECT_EQ(stale[1].path_suffix, "dl/also_gone.cpp");
}

// ---------------------------------------------------------------------------
// Layer-DAG checking.
// ---------------------------------------------------------------------------

TEST(TlsLintLayers, ParsesIncludesSkippingCommentsAndSystemHeaders) {
  std::string src =
      "#include <vector>\n"
      "#include \"net/units.hpp\"\n"
      "// #include \"net/commented.hpp\"\n"
      "/* #include \"net/blocked.hpp\" */\n"
      "  #  include   \"simcore/time.hpp\"\n";
  auto incs = parse_includes(src);
  ASSERT_EQ(incs.size(), 2u);
  EXPECT_EQ(incs[0].path, "net/units.hpp");
  EXPECT_EQ(incs[0].line, 2);
  EXPECT_EQ(incs[1].path, "simcore/time.hpp");
  EXPECT_EQ(incs[1].line, 5);
}

TEST(TlsLintLayers, ParsesManifestModulesAndGrants) {
  auto m = parse_layer_manifest(
      "# lowest layer first\n"
      "module simcore:\n"
      "module net: simcore   # the fabric\n"
      "allow obs/trace.hpp -> net/units.hpp\n");
  EXPECT_TRUE(m.errors.empty());
  ASSERT_EQ(m.deps.size(), 2u);
  EXPECT_TRUE(m.deps.at("simcore").empty());
  EXPECT_EQ(m.deps.at("net"), std::vector<std::string>{"simcore"});
  ASSERT_EQ(m.file_grants.size(), 1u);
  EXPECT_EQ(m.file_grants[0].first, "obs/trace.hpp");
  EXPECT_EQ(m.file_grants[0].second, "net/units.hpp");
}

TEST(TlsLintLayers, ManifestErrorsAreCollected) {
  auto m = parse_layer_manifest(
      "module net: ghost\n"
      "module net: simcore\n"
      "frobnicate all\n"
      "allow broken\n");
  // undeclared dep, duplicate module, unknown directive, bad allow.
  EXPECT_EQ(m.errors.size(), 4u);
}

namespace {
/// The repo's shape in miniature: simcore below net below runtime.
LayerManifest tiny_manifest() {
  return parse_layer_manifest(
      "module simcore:\n"
      "module net: simcore\n"
      "module runtime: net simcore\n");
}
}  // namespace

TEST(TlsLintLayers, CleanGraphPasses) {
  std::map<std::string, std::vector<Include>> files;
  files["simcore/time.hpp"] = {};
  files["net/port.hpp"] = {{"simcore/time.hpp", 3}};
  files["runtime/runner.cpp"] = {{"net/port.hpp", 2},
                                 {"simcore/time.hpp", 3},
                                 {"runtime/runner.hpp", 1}};
  auto findings = check_layer_graph(files, tiny_manifest());
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(TlsLintLayers, BackEdgeIsFlaggedWithChain) {
  // The negative case the ctest contract promises: an artificially
  // introduced simcore -> runtime include must fail, and the finding must
  // print the include chain that closes the cycle.
  std::map<std::string, std::vector<Include>> files;
  files["simcore/event_queue.hpp"] = {{"runtime/runner.hpp", 7}};
  files["runtime/runner.hpp"] = {{"net/port.hpp", 2}};
  files["net/port.hpp"] = {{"simcore/event_queue.hpp", 3}};
  auto findings = check_layer_graph(files, tiny_manifest());
  ASSERT_EQ(findings.size(), 1u) << format_findings(findings);
  EXPECT_EQ(findings[0].rule, "layer-dag");
  EXPECT_EQ(findings[0].file, "simcore/event_queue.hpp");
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].message.find("may not depend on 'runtime'"),
            std::string::npos)
      << findings[0].message;
  // The chain walks the actual include edges back into simcore.
  EXPECT_NE(findings[0].message.find(
                "simcore/event_queue.hpp -> runtime/runner.hpp -> "
                "net/port.hpp -> simcore/event_queue.hpp"),
            std::string::npos)
      << findings[0].message;
}

TEST(TlsLintLayers, FileGrantAllowsOneEdgeOnly) {
  auto manifest = parse_layer_manifest(
      "module simcore:\n"
      "module obs: simcore\n"
      "module net: simcore obs\n"
      "allow obs/trace.hpp -> net/units.hpp\n");
  std::map<std::string, std::vector<Include>> files;
  files["net/units.hpp"] = {};
  files["net/other.hpp"] = {};
  files["obs/trace.hpp"] = {{"net/units.hpp", 5}};
  EXPECT_TRUE(check_layer_graph(files, manifest).empty());
  // Same edge from a different file: flagged.
  files["obs/metrics.hpp"] = {{"net/units.hpp", 4}};
  auto f1 = check_layer_graph(files, manifest);
  ASSERT_EQ(f1.size(), 1u) << format_findings(f1);
  EXPECT_EQ(f1[0].file, "obs/metrics.hpp");
  files.erase("obs/metrics.hpp");
  // Different target from the granted file: flagged.
  files["obs/trace.hpp"].push_back({"net/other.hpp", 6});
  auto f2 = check_layer_graph(files, manifest);
  ASSERT_EQ(f2.size(), 1u) << format_findings(f2);
  EXPECT_EQ(f2[0].line, 6);
}

TEST(TlsLintLayers, UndeclaredModuleIsFlagged) {
  std::map<std::string, std::vector<Include>> files;
  files["mystery/box.hpp"] = {};
  auto findings = check_layer_graph(files, tiny_manifest());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("'mystery'"), std::string::npos);
}

TEST(TlsLintLayers, ManifestCycleIsFlagged) {
  auto manifest = parse_layer_manifest(
      "module a: b\n"
      "module b: c\n"
      "module c: a\n");
  EXPECT_TRUE(manifest.errors.empty());
  auto findings = check_layer_graph({}, manifest);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layer-dag");
  EXPECT_NE(findings[0].message.find("cycle"), std::string::npos);
  // The chain names all three modules.
  for (const char* mod : {"a", "b", "c"}) {
    EXPECT_NE(findings[0].message.find(mod), std::string::npos)
        << findings[0].message;
  }
}

TEST(TlsLintLayers, ExternalQuotedIncludesAreIgnored) {
  std::map<std::string, std::vector<Include>> files;
  files["net/port.hpp"] = {{"gtest/gtest.h", 2}, {"port_config.hpp", 3}};
  auto findings = check_layer_graph(files, tiny_manifest());
  EXPECT_TRUE(findings.empty()) << format_findings(findings);
}

TEST(TlsLintLayers, TreeScanChecksRealFiles) {
  namespace fs = std::filesystem;
  fs::path root = fs::path(testing::TempDir()) / "tls_lint_layers";
  fs::remove_all(root);
  fs::create_directories(root / "simcore");
  fs::create_directories(root / "runtime");
  {
    std::ofstream a(root / "runtime" / "runner.hpp");
    a << "#pragma once\n#include \"simcore/time.hpp\"\n";
    std::ofstream b(root / "simcore" / "time.hpp");
    b << "#pragma once\n";
  }
  EXPECT_TRUE(check_layer_tree(root, tiny_manifest()).empty());
  {
    std::ofstream bad(root / "simcore" / "bad.hpp");
    bad << "#pragma once\n#include \"runtime/runner.hpp\"\n";
  }
  auto findings = check_layer_tree(root, tiny_manifest());
  ASSERT_EQ(findings.size(), 1u) << format_findings(findings);
  EXPECT_EQ(findings[0].file, "simcore/bad.hpp");
  EXPECT_EQ(findings[0].line, 2);
  fs::remove_all(root);
}

}  // namespace
}  // namespace tls::lint
