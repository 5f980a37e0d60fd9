// The one command-line reader, shared by every front end: the tlsim
// commands (runtime/cli.cpp), the tlsreport modes (obs/report_cli.cpp) and
// the bench harnesses (bench/common.hpp). Each passes its switch and value
// flag names to parse_args, then checks the flags against the ones its
// command or mode reads with check_flags. The rule for all of them:
//   --k=v and --k v both give k the value v; the last occurrence wins.
//   A switch never takes a value, so the token after it is a positional.
//   A value flag needs a value, and an empty one is a bad value.
//   Any other flag takes the next token unless it starts with "--", and is
//   left for check_flags to reject as unknown.
#pragma once

#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simcore/parse.hpp"

namespace tls::sim {

/// Parsed flags, in the order given (a switch maps to "true"), and the
/// positional arguments.
struct CliArgs {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  /// Last value of a flag, or `fallback` when absent.
  std::string get(const std::string& key,
                  const std::string& fallback = "") const;
  bool has(const std::string& key) const;
};

/// Splits `raw` (the arguments after the program name) into CliArgs by the
/// rule above. Returns false with a message on a malformed flag: "--csv is
/// a switch and takes no value, got 'no'", "--trace-csv needs a value",
/// "bad value for --json: ''", "empty flag name".
bool parse_args(const std::vector<std::string>& raw,
                std::span<const std::string_view> switches,
                std::span<const std::string_view> value_flags, CliArgs* out,
                std::string* error);

/// Rejects the first flag not in `valid`: "unknown flag --k (valid flags
/// for <label>: --a, --b)".
bool check_flags(const CliArgs& args, std::string_view label,
                 std::span<const std::string_view> valid, std::string* error);

/// Typed reads of parsed flags. An absent flag yields its fallback; a
/// present one must parse whole (simcore/parse.hpp) and lie in its range.
/// The first value that does not is kept as the error and later reads
/// yield their fallbacks, so a front end reads every flag and then checks
/// ok() once.
class FlagReader {
 public:
  explicit FlagReader(const CliArgs& args) : args_(args) {}

  long integer(const std::string& key, long fallback, long lo, long hi) {
    long v = fallback;
    if (args_.has(key) && !parse_int(args_.get(key), &v, lo, hi)) bad(key);
    return v;
  }

  /// Reals are also capped at 1e9, so any time in seconds fits sim::Time.
  double real(const std::string& key, double fallback, double lo) {
    double v = fallback;
    if (args_.has(key) && !parse_real(args_.get(key), &v, lo, 1e9)) bad(key);
    return v;
  }

  /// One of `choices`, by name.
  template <typename T>
  T choice(const std::string& key, const std::string& fallback,
           std::initializer_list<std::pair<std::string_view, T>> choices) {
    std::string v = args_.get(key, fallback);
    std::string names;
    for (const auto& [name, value] : choices) {
      if (name == v) return value;
      names += (names.empty() ? "" : "|") + std::string(name);
    }
    if (error_.empty()) {
      error_ = "bad --" + key + " '" + v + "' (" + names + ")";
    }
    return choices.begin()->second;
  }

  /// False, with the first failure in `*error`, once any read failed.
  bool ok(std::string* error) const {
    if (error_.empty()) return true;
    *error = error_;
    return false;
  }

 private:
  void bad(const std::string& key) {
    if (error_.empty()) {
      error_ = "bad value for --" + key + ": '" + args_.get(key) + "'";
    }
  }

  const CliArgs& args_;
  std::string error_;
};

}  // namespace tls::sim
