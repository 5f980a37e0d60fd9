#include "tc/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string_view>

#include "simcore/parse.hpp"

namespace tls::tc {

const char* to_string(QdiscKind kind) {
  switch (kind) {
    case QdiscKind::kPfifo: return "pfifo";
    case QdiscKind::kPrio: return "prio";
    case QdiscKind::kHtb: return "htb";
  }
  return "?";
}

namespace {
/// Splits "<number><suffix>", where the number is the leading run of
/// digits and dots; returns (value, lower-cased suffix) or nullopt.
std::optional<std::pair<double, std::string>> split_number(const std::string& s) {
  std::size_t i = std::min(s.find_first_not_of("0123456789."), s.size());
  double v = 0;
  if (!sim::parse_real(std::string_view(s).substr(0, i), &v, 0,
                       std::numeric_limits<double>::max())) {
    return std::nullopt;
  }
  std::string suffix = s.substr(i);
  for (char& c : suffix) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return std::make_pair(v, suffix);
}
}  // namespace

std::optional<Handle> Handle::parse(const std::string& text) {
  // Two hex halves around one colon; either may be empty (0), not both.
  std::string_view half[2];
  Handle h;
  if (sim::split(text, ':', half, 2) != 2 ||
      (half[0].empty() && half[1].empty()) ||
      (!half[0].empty() && !sim::parse_int(half[0], &h.major, 0, 0xFFFF, 16)) ||
      (!half[1].empty() && !sim::parse_int(half[1], &h.minor, 0, 0xFFFF, 16))) {
    return std::nullopt;
  }
  return h;
}

std::string Handle::str() const {
  char buf[16];
  if (minor == 0) {
    std::snprintf(buf, sizeof(buf), "%x:", major);
  } else {
    std::snprintf(buf, sizeof(buf), "%x:%x", major, minor);
  }
  return buf;
}

std::optional<net::Rate> parse_rate(const std::string& text) {
  auto parts = split_number(text);
  if (!parts) return std::nullopt;
  auto [v, suffix] = *parts;
  double bits_per_sec;
  if (suffix.empty() || suffix == "bit") bits_per_sec = v;
  else if (suffix == "kbit") bits_per_sec = v * 1e3;
  else if (suffix == "mbit") bits_per_sec = v * 1e6;
  else if (suffix == "gbit") bits_per_sec = v * 1e9;
  else if (suffix == "tbit") bits_per_sec = v * 1e12;
  // tc's *bps family is bytes per second.
  else if (suffix == "bps") bits_per_sec = v * 8;
  else if (suffix == "kbps") bits_per_sec = v * 8e3;
  else if (suffix == "mbps") bits_per_sec = v * 8e6;
  else if (suffix == "gbps") bits_per_sec = v * 8e9;
  else return std::nullopt;
  // A huge mantissa times a large unit overflows to inf.
  if (bits_per_sec <= 0 || !std::isfinite(bits_per_sec)) return std::nullopt;
  return net::Rate{bits_per_sec / 8.0};
}

std::optional<net::Bytes> parse_size(const std::string& text) {
  auto parts = split_number(text);
  if (!parts) return std::nullopt;
  auto [v, suffix] = *parts;
  double bytes;
  if (suffix.empty() || suffix == "b") bytes = v;
  else if (suffix == "k" || suffix == "kb") bytes = v * 1024.0;
  else if (suffix == "m" || suffix == "mb") bytes = v * 1024.0 * 1024.0;
  else if (suffix == "g" || suffix == "gb") bytes = v * 1024.0 * 1024.0 * 1024.0;
  else return std::nullopt;
  // 2^63 bytes and up do not fit net::Bytes.
  if (bytes <= 0 || bytes >= 0x1p63) return std::nullopt;
  return net::Bytes{static_cast<std::int64_t>(bytes)};
}

std::string format_rate(net::Rate bytes_per_sec) {
  double bits = net::bits_per_sec(bytes_per_sec);
  char buf[32];
  if (bits >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%ggbit", bits / 1e9);
  } else if (bits >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%gmbit", bits / 1e6);
  } else if (bits >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%gkbit", bits / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%gbit", bits);
  }
  return buf;
}

}  // namespace tls::tc
