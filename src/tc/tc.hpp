// TrafficControl: the applier that binds parsed tc commands to the
// simulated NICs of a Fabric — the stand-in for the kernel side of tc.
//
// Semantics follow Linux where it matters to the paper:
//  * one root qdisc per device; adding over an existing root fails unless
//    "replace" is used;
//  * replacing or deleting a busy root qdisc keeps its backlog: Linux
//    would drop it, but our transfers are lossless, so
//    EgressPort::set_qdisc migrates the queued chunks into the new root in
//    the old one's service order;
//  * filters attach to the root, so qdisc add/replace/del clears them;
//  * prio flowid 1:N maps to band N-1 (tc convention), htb flowid 1:N maps
//    to class minor N;
//  * class operations are valid only on an htb root.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "tc/parser.hpp"

namespace tls::tc {

struct Status {
  bool ok = true;
  std::string error;

  static Status good() { return {}; }
  static Status fail(std::string message) { return {false, std::move(message)}; }
  explicit operator bool() const { return ok; }
};

/// Canonical device name for a host ("host7").
std::string device_name(net::HostId host);

class TrafficControl {
 public:
  explicit TrafficControl(net::Fabric& fabric);

  /// Parses and applies one tc command line. Successful commands are
  /// recorded in history().
  Status exec(const std::string& command_line);

  /// Applies an already-parsed command.
  Status apply(const Command& command);

  /// Resolves "host3", "h3", or "3" to a HostId; -1 when unknown.
  net::HostId resolve_device(const std::string& dev) const;

  /// Root qdisc kind currently installed on a host's egress.
  QdiscKind root_kind(net::HostId host) const;

  /// Egress line rate of a host (bytes/sec); controllers use it to size
  /// htb ceilings.
  net::Rate link_rate(net::HostId host) const;

  /// All successfully executed command lines, in order.
  const std::vector<std::string>& history() const { return history_; }

  /// Number of successful reconfiguration commands applied, per host. The
  /// paper cares about keeping tc churn local to hosts with contending
  /// PSes; tests assert unaffected hosts stay at zero.
  std::uint64_t reconfig_count(net::HostId host) const;

 private:
  Status apply_qdisc_add(const QdiscAddCmd& cmd);
  Status apply_qdisc_del(const QdiscDelCmd& cmd);
  Status apply_class(const ClassAddCmd& cmd);
  Status apply_class_del(const ClassDelCmd& cmd);
  Status apply_filter_add(const FilterAddCmd& cmd);
  Status apply_filter_del(const FilterDelCmd& cmd);

  struct DeviceState {
    QdiscKind kind = QdiscKind::kPfifo;
    Handle handle{0, 0};  // 0: means "default qdisc, never configured"
  };

  net::Fabric& fabric_;
  std::vector<DeviceState> devices_;
  std::vector<std::uint64_t> reconfigs_;
  std::vector<std::string> history_;
};

}  // namespace tls::tc
