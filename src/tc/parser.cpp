#include "tc/parser.hpp"

#include <string_view>
#include <vector>

#include "simcore/parse.hpp"

namespace tls::tc {

namespace {

/// Cursor over the words of one command line.
class Cursor {
 public:
  explicit Cursor(const std::string& line) : tokens_(sim::words(line)) {}

  bool done() const { return pos_ >= tokens_.size(); }
  std::string peek() const { return done() ? "" : std::string(tokens_[pos_]); }
  std::string next() { return done() ? "" : std::string(tokens_[pos_++]); }
  /// Consumes `word` if it is next; returns whether it was.
  bool accept(std::string_view word) {
    if (!done() && tokens_[pos_] == word) {
      ++pos_;
      return true;
    }
    return false;
  }

 private:
  std::vector<std::string_view> tokens_;  // views into the command line
  std::size_t pos_ = 0;
};

ParseResult parse_qdisc(Cursor& c) {
  std::string op = c.next();
  if (op == "del" || op == "delete") {
    if (!c.accept("dev")) return ParseResult::failure("expected 'dev'");
    QdiscDelCmd cmd;
    cmd.dev = c.next();
    if (cmd.dev.empty()) return ParseResult::failure("expected device name");
    if (!c.accept("root")) return ParseResult::failure("expected 'root'");
    return ParseResult::success(cmd);
  }
  if (op != "add" && op != "replace") {
    return ParseResult::failure("unknown qdisc operation '" + op + "'");
  }
  QdiscAddCmd cmd;
  cmd.replace = (op == "replace");
  if (!c.accept("dev")) return ParseResult::failure("expected 'dev'");
  cmd.dev = c.next();
  if (cmd.dev.empty()) return ParseResult::failure("expected device name");
  if (!c.accept("root")) return ParseResult::failure("expected 'root'");
  if (c.accept("handle")) {
    auto h = Handle::parse(c.next());
    // Major 0 is how TrafficControl marks a device with no root qdisc.
    if (!h || h->major == 0 || h->minor != 0) {
      return ParseResult::failure("bad qdisc handle");
    }
    cmd.spec.handle = *h;
  }
  std::string kind = c.next();
  if (kind == "pfifo") {
    cmd.spec.kind = QdiscKind::kPfifo;
    // pfifo accepts "limit N" in tc; our queues are lossless, so accept and
    // ignore the value for command compatibility.
    int limit = 0;
    if (c.accept("limit") && !sim::parse_int(c.next(), &limit)) {
      return ParseResult::failure("bad pfifo limit");
    }
  } else if (kind == "prio") {
    cmd.spec.kind = QdiscKind::kPrio;
    if (c.accept("bands") &&
        !sim::parse_int(c.next(), &cmd.spec.prio_bands, 1, 16)) {
      return ParseResult::failure("bad band count");
    }
  } else if (kind == "htb") {
    cmd.spec.kind = QdiscKind::kHtb;
    if (c.accept("default")) {
      // tc parses the htb default minor as hex.
      auto h = Handle::parse(":" + c.next());
      if (!h) return ParseResult::failure("bad htb default");
      cmd.spec.htb_default = h->minor;
    }
  } else {
    return ParseResult::failure("unknown qdisc kind '" + kind + "'");
  }
  return ParseResult::success(cmd);
}

ParseResult parse_class(Cursor& c) {
  std::string op = c.next();
  if (op == "del" || op == "delete") {
    if (!c.accept("dev")) return ParseResult::failure("expected 'dev'");
    ClassDelCmd cmd;
    cmd.dev = c.next();
    if (cmd.dev.empty()) return ParseResult::failure("expected device name");
    if (!c.accept("classid")) return ParseResult::failure("expected 'classid'");
    auto h = Handle::parse(c.next());
    if (!h || h->minor == 0) return ParseResult::failure("bad classid");
    cmd.classid = *h;
    return ParseResult::success(cmd);
  }
  if (op != "add" && op != "change") {
    return ParseResult::failure("unknown class operation '" + op + "'");
  }
  ClassAddCmd cmd;
  cmd.change = (op == "change");
  if (!c.accept("dev")) return ParseResult::failure("expected 'dev'");
  cmd.dev = c.next();
  if (cmd.dev.empty()) return ParseResult::failure("expected device name");
  if (!c.accept("parent")) return ParseResult::failure("expected 'parent'");
  auto parent = Handle::parse(c.next());
  if (!parent) return ParseResult::failure("bad parent handle");
  cmd.spec.parent = *parent;
  if (!c.accept("classid")) return ParseResult::failure("expected 'classid'");
  auto classid = Handle::parse(c.next());
  if (!classid || classid->minor == 0) return ParseResult::failure("bad classid");
  cmd.spec.classid = *classid;
  if (!c.accept("htb")) return ParseResult::failure("only htb classes supported");
  bool saw_rate = false;
  while (!c.done()) {
    std::string key = c.next();
    std::string val = c.next();
    if (val.empty()) return ParseResult::failure("missing value for '" + key + "'");
    if (key == "rate") {
      auto r = parse_rate(val);
      if (!r) return ParseResult::failure("bad rate '" + val + "'");
      cmd.spec.rate = *r;
      saw_rate = true;
    } else if (key == "ceil") {
      auto r = parse_rate(val);
      if (!r) return ParseResult::failure("bad ceil '" + val + "'");
      cmd.spec.ceil = *r;
    } else if (key == "burst") {
      auto s = parse_size(val);
      if (!s) return ParseResult::failure("bad burst '" + val + "'");
      cmd.spec.burst = *s;
    } else if (key == "cburst") {
      auto s = parse_size(val);
      if (!s) return ParseResult::failure("bad cburst '" + val + "'");
      cmd.spec.cburst = *s;
    } else if (key == "prio") {
      if (!sim::parse_int(val, &cmd.spec.prio, 0, 7)) {
        return ParseResult::failure("bad prio '" + val + "'");
      }
    } else if (key == "quantum") {
      auto s = parse_size(val);
      if (!s) return ParseResult::failure("bad quantum '" + val + "'");
      cmd.spec.quantum = *s;
    } else {
      return ParseResult::failure("unknown class parameter '" + key + "'");
    }
  }
  if (!saw_rate) return ParseResult::failure("htb class requires 'rate'");
  return ParseResult::success(cmd);
}

ParseResult parse_filter(Cursor& c) {
  std::string op = c.next();
  if (op == "del" || op == "delete") {
    if (!c.accept("dev")) return ParseResult::failure("expected 'dev'");
    FilterDelCmd cmd;
    cmd.dev = c.next();
    if (cmd.dev.empty()) return ParseResult::failure("expected device name");
    if (!c.accept("pref")) return ParseResult::failure("expected 'pref'");
    if (!sim::parse_int(c.next(), &cmd.pref)) {
      return ParseResult::failure("bad pref");
    }
    return ParseResult::success(cmd);
  }
  if (op != "add") return ParseResult::failure("unknown filter operation '" + op + "'");
  FilterAddCmd cmd;
  if (!c.accept("dev")) return ParseResult::failure("expected 'dev'");
  cmd.dev = c.next();
  if (cmd.dev.empty()) return ParseResult::failure("expected device name");
  if (c.accept("protocol")) {
    if (c.next() != "ip") return ParseResult::failure("only 'protocol ip' supported");
  }
  if (!c.accept("parent")) return ParseResult::failure("expected 'parent'");
  auto parent = Handle::parse(c.next());
  if (!parent) return ParseResult::failure("bad parent handle");
  cmd.parent = *parent;
  if (c.accept("pref") && !sim::parse_int(c.next(), &cmd.spec.pref)) {
    return ParseResult::failure("bad pref");
  }
  if (!c.accept("u32")) return ParseResult::failure("only u32 filters supported");
  bool saw_flowid = false;
  while (!c.done()) {
    if (c.accept("match")) {
      if (!c.accept("ip")) return ParseResult::failure("expected 'ip' after match");
      std::string field = c.next();
      std::uint16_t port = 0;
      if (!sim::parse_int(c.next(), &port)) {
        return ParseResult::failure("bad port in match");
      }
      std::string mask = c.next();
      if (mask != "0xffff") return ParseResult::failure("port match requires mask 0xffff");
      if (field == "sport") {
        cmd.spec.sport = port;
      } else if (field == "dport") {
        cmd.spec.dport = port;
      } else {
        return ParseResult::failure("unsupported match field '" + field + "'");
      }
    } else if (c.accept("flowid")) {
      auto h = Handle::parse(c.next());
      if (!h || h->minor == 0) return ParseResult::failure("bad flowid");
      cmd.spec.flowid = *h;
      saw_flowid = true;
    } else {
      return ParseResult::failure("unexpected token '" + c.peek() + "' in filter");
    }
  }
  if (!saw_flowid) return ParseResult::failure("filter requires 'flowid'");
  return ParseResult::success(cmd);
}

}  // namespace

ParseResult parse_command(const std::string& line) {
  Cursor c(line);
  if (c.done()) return ParseResult::failure("empty command");
  c.accept("tc");  // optional leading binary name
  std::string object = c.next();
  ParseResult parsed =
      object == "qdisc"    ? parse_qdisc(c)
      : object == "class"  ? parse_class(c)
      : object == "filter" ? parse_filter(c)
                           : ParseResult::failure("unknown tc object '" + object + "'");
  // "filter del ... pref 10 64" must not delete pref 10.
  if (parsed.ok && !c.done()) {
    return ParseResult::failure("trailing tokens after " + object + " spec");
  }
  return parsed;
}

}  // namespace tls::tc
