// Typed representations of tc objects (qdiscs, classes, filters) plus the
// tc textual conventions: hexadecimal handles ("1:a" is minor 10) and rate
// suffixes where `kbit/mbit/gbit` are bits/sec but `bps/kbps/...` are
// BYTES/sec, exactly as in tc(8).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/units.hpp"

namespace tls::tc {

/// A tc handle "major:minor" with hexadecimal components.
struct Handle {
  std::uint16_t major = 0;
  std::uint16_t minor = 0;

  friend bool operator==(const Handle&, const Handle&) = default;

  /// Parses "1:", "1:10", ":a", "ffff:1". Returns nullopt on malformed
  /// input (empty, missing colon, non-hex digits, overflow).
  static std::optional<Handle> parse(const std::string& text);

  /// Renders as "major:minor" (or "major:" when minor == 0), lowercase hex.
  std::string str() const;
};

enum class QdiscKind { kPfifo, kPrio, kHtb };

const char* to_string(QdiscKind kind);

/// Root qdisc parameters.
struct QdiscSpec {
  QdiscKind kind = QdiscKind::kPfifo;
  Handle handle{1, 0};
  /// prio: number of bands (default 3 as in Linux).
  int prio_bands = 3;
  /// htb: classid minor receiving unclassified traffic (0 = direct queue).
  std::uint32_t htb_default = 0;
};

/// htb class parameters ("tc class add ... htb rate ... ceil ...").
struct ClassSpec {
  Handle classid{};
  Handle parent{};
  net::Rate rate{};                    // required
  std::optional<net::Rate> ceil;       // defaults to rate
  net::Bytes burst = 64 * net::kKiB;
  net::Bytes cburst = 64 * net::kKiB;
  int prio = 0;
  net::Bytes quantum = 128 * net::kKiB;
};

/// u32-style filter matching TCP ports, mapping to a class/band.
struct FilterSpec {
  int pref = 100;
  std::optional<std::uint16_t> sport;
  std::optional<std::uint16_t> dport;
  Handle flowid{};
};

/// Parses a tc rate string: "10gbit", "1.5mbit", "512kbit", "800bit",
/// "100bps", "1mbps" (bps variants are bytes/sec), or a bare number
/// (bits/sec, as tc assumes). Returns bytes/sec; nullopt on malformed input
/// or non-positive value.
std::optional<net::Rate> parse_rate(const std::string& text);

/// Parses a tc size string: "64k", "1m", "1540b", bare number = bytes;
/// k/m/g are binary (1024-based) per tc. Returns nullopt when malformed or
/// non-positive.
std::optional<net::Bytes> parse_size(const std::string& text);

/// Formats a rate in tc style, picking gbit/mbit/kbit/bit.
std::string format_rate(net::Rate bytes_per_sec);

}  // namespace tls::tc
