// Determinism + layering lint driver. Usage:
//   tls_lint <source-root> [--allowlist FILE] [--layers FILE]
//            [--json FILE] [--prune-allowlist]
// Scans every C++ file under <source-root> for the banned patterns
// documented in tls_lint_core.hpp and — with --layers — checks the
// #include graph against the module-layer manifest. Exits nonzero when any
// finding is not covered by the allowlist. Registered as the `tls_lint`
// ctest, so a determinism or layering hazard fails the build the same way a
// failing unit test does.
//
//   --json FILE        also write the (post-allowlist) findings as a JSON
//                      array; CI archives it next to the BENCH_*.json
//                      artifacts so regressions are diffable.
//   --prune-allowlist  additionally fail when an allowlist entry no longer
//                      silences anything — the allowlist may only shrink
//                      back toward empty, never accrete stale exemptions.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "tls_lint_core.hpp"

namespace {

constexpr const char* kUsage =
    "usage: tls_lint <source-root> [--allowlist FILE] [--layers FILE] "
    "[--json FILE] [--prune-allowlist]\n";

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root;
  std::string allow_path;
  std::string layers_path;
  std::string json_path;
  bool prune = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "tls_lint: " << flag << " needs a file argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--allowlist") {
      allow_path = value("--allowlist");
    } else if (arg == "--layers") {
      layers_path = value("--layers");
    } else if (arg == "--json") {
      json_path = value("--json");
    } else if (arg == "--prune-allowlist") {
      prune = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (root.empty()) {
      root = arg;
    } else {
      std::cerr << "tls_lint: unexpected argument '" << arg << "'\n";
      return 2;
    }
  }
  if (root.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  std::vector<tls::lint::AllowEntry> allow;
  if (!allow_path.empty()) {
    std::string text;
    if (!read_file(allow_path, &text)) {
      std::cerr << "tls_lint: cannot read allowlist '" << allow_path << "'\n";
      return 2;
    }
    allow = tls::lint::parse_allowlist(text);
  }

  // Collect every finding *before* the allowlist so --prune-allowlist can
  // tell which entries still earn their keep.
  std::vector<tls::lint::Finding> all;
  try {
    all = tls::lint::lint_tree(root, {});
  } catch (const std::exception& e) {
    std::cerr << "tls_lint: cannot scan '" << root << "': " << e.what()
              << "\n";
    return 2;
  }

  if (!layers_path.empty()) {
    std::string text;
    if (!read_file(layers_path, &text)) {
      std::cerr << "tls_lint: cannot read layer manifest '" << layers_path
                << "'\n";
      return 2;
    }
    tls::lint::LayerManifest manifest = tls::lint::parse_layer_manifest(text);
    if (!manifest.errors.empty()) {
      for (const std::string& e : manifest.errors) {
        std::cerr << "tls_lint: " << layers_path << ": " << e << "\n";
      }
      return 2;
    }
    std::vector<tls::lint::Finding> layer =
        tls::lint::check_layer_tree(root, manifest);
    all.insert(all.end(), layer.begin(), layer.end());
  }

  std::sort(all.begin(), all.end(),
            [](const tls::lint::Finding& a, const tls::lint::Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });

  std::vector<tls::lint::Finding> findings;
  for (tls::lint::Finding& f : all) {
    if (!tls::lint::is_allowed(f, allow)) findings.push_back(std::move(f));
  }

  if (!json_path.empty()) {
    // Checked after the close: a full disk fails only when the buffer is
    // flushed, and a failed open leaves the stream failed too.
    std::ofstream out(json_path, std::ios::binary);
    out << tls::lint::findings_to_json(findings);
    out.close();
    if (!out) {
      std::cerr << "tls_lint: cannot write '" << json_path << "'\n";
      return 2;
    }
  }

  int rc = 0;
  if (prune) {
    std::vector<tls::lint::AllowEntry> stale =
        tls::lint::stale_allow_entries(allow, all);
    if (!stale.empty()) {
      for (const tls::lint::AllowEntry& e : stale) {
        std::cout << "stale allowlist entry: " << e.path_suffix;
        if (!e.rule.empty()) std::cout << ':' << e.rule;
        std::cout << " (silences nothing; delete it)\n";
      }
      rc = 1;
    }
  }

  if (!findings.empty()) {
    std::cout << tls::lint::format_findings(findings);
    std::cout << "tls_lint: " << findings.size()
              << " finding(s); fix them or add an entry to the allowlist "
                 "with a justification\n";
    rc = 1;
  } else if (rc == 0) {
    std::cout << "tls_lint: clean (" << root << ")\n";
  }
  return rc;
}
