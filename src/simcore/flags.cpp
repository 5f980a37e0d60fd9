#include "simcore/flags.hpp"

#include <algorithm>

namespace tls::sim {

namespace {

bool contains(std::span<const std::string_view> names, std::string_view key) {
  return std::find(names.begin(), names.end(), key) != names.end();
}

}  // namespace

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  std::string value = fallback;
  for (const auto& [k, v] : flags) {
    if (k == key) value = v;
  }
  return value;
}

bool CliArgs::has(const std::string& key) const {
  return std::any_of(flags.begin(), flags.end(),
                     [&key](const auto& flag) { return flag.first == key; });
}

bool parse_args(const std::vector<std::string>& raw,
                std::span<const std::string_view> switches,
                std::span<const std::string_view> value_flags, CliArgs* out,
                std::string* error) {
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string& a = raw[i];
    if (!a.starts_with("--")) {
      out->positional.push_back(a);
      continue;
    }
    std::string key = a.substr(2);
    std::string value = "true";
    std::size_t eq = key.find('=');
    bool given = eq != std::string::npos;
    if (given) {
      value = key.substr(eq + 1);
      key.resize(eq);
    }
    if (key.empty()) {
      *error = "empty flag name";
      return false;
    }
    bool is_switch = contains(switches, key);
    if (given && is_switch) {
      *error = "--" + key + " is a switch and takes no value, got '" + value +
               "'";
      return false;
    }
    if (!given && !is_switch) {
      if (i + 1 < raw.size() && !raw[i + 1].starts_with("--")) {
        value = raw[++i];
      } else if (contains(value_flags, key)) {
        *error = "--" + key + " needs a value";
        return false;
      }
    }
    if (value.empty() && contains(value_flags, key)) {
      *error = "bad value for --" + key + ": ''";
      return false;
    }
    out->flags.emplace_back(std::move(key), std::move(value));
  }
  return true;
}

bool check_flags(const CliArgs& args, std::string_view label,
                 std::span<const std::string_view> valid, std::string* error) {
  for (const auto& [key, value] : args.flags) {
    if (contains(valid, key)) continue;
    std::string list;
    for (std::string_view name : valid) {
      list += list.empty() ? "--" : ", --";
      list += name;
    }
    *error = "unknown flag --" + key + " (valid flags for " +
             std::string(label) + ": " + list + ")";
    return false;
  }
  return true;
}

}  // namespace tls::sim
