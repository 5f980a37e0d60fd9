// Parser for the tc command DSL.
//
// Supported grammar (a faithful subset of tc(8), hex handles and all):
//
//   tc qdisc add|replace dev DEV root handle H: pfifo
//   tc qdisc add|replace dev DEV root handle H: prio [bands N]
//   tc qdisc add|replace dev DEV root handle H: htb [default M]
//   tc qdisc del dev DEV root
//   tc class add|change dev DEV parent H: classid H:M htb rate RATE
//        [ceil RATE] [burst SIZE] [cburst SIZE] [prio N] [quantum SIZE]
//   tc class del dev DEV classid H:M
//   tc filter add dev DEV [protocol ip] parent H: [pref N] u32
//        {match ip sport PORT 0xffff | match ip dport PORT 0xffff}...
//        flowid H:M
//   tc filter del dev DEV pref N
#pragma once

#include <string>
#include <variant>

#include "tc/spec.hpp"

namespace tls::tc {

struct QdiscAddCmd {
  std::string dev;
  QdiscSpec spec;
  bool replace = false;
};
struct QdiscDelCmd {
  std::string dev;
};
struct ClassAddCmd {
  std::string dev;
  ClassSpec spec;
  bool change = false;  // "tc class change"
};
struct ClassDelCmd {
  std::string dev;
  Handle classid;
};
struct FilterAddCmd {
  std::string dev;
  Handle parent;
  FilterSpec spec;
};
struct FilterDelCmd {
  std::string dev;
  int pref = 0;
};

using Command = std::variant<QdiscAddCmd, QdiscDelCmd, ClassAddCmd,
                             ClassDelCmd, FilterAddCmd, FilterDelCmd>;

struct ParseResult {
  bool ok = false;
  Command command{};
  std::string error;

  static ParseResult failure(std::string message) {
    ParseResult r;
    r.error = std::move(message);
    return r;
  }
  static ParseResult success(Command c) {
    ParseResult r;
    r.ok = true;
    r.command = std::move(c);
    return r;
  }
};

/// Parses one tc command line. Leading "tc" is optional. Never throws.
ParseResult parse_command(const std::string& line);

}  // namespace tls::tc
