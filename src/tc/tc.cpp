#include "tc/tc.hpp"

#include <string_view>

#include "net/htb_qdisc.hpp"
#include "net/pfifo_qdisc.hpp"
#include "net/prio_qdisc.hpp"
#include "simcore/parse.hpp"

namespace tls::tc {

std::string device_name(net::HostId host) {
  return "host" + std::to_string(host.idx());
}

TrafficControl::TrafficControl(net::Fabric& fabric)
    : fabric_(fabric),
      devices_(static_cast<std::size_t>(fabric.num_hosts())),
      reconfigs_(static_cast<std::size_t>(fabric.num_hosts()), 0) {}

net::HostId TrafficControl::resolve_device(const std::string& dev) const {
  std::string_view digits = dev;
  if (digits.starts_with("host")) {
    digits.remove_prefix(4);
  } else if (digits.size() > 1 && digits[0] == 'h') {
    digits.remove_prefix(1);
  }
  std::int32_t index = 0;
  if (!sim::parse_int(digits, &index, 0, fabric_.num_hosts() - 1)) {
    return net::kNoHost;
  }
  return net::HostId{index};
}

QdiscKind TrafficControl::root_kind(net::HostId host) const {
  return devices_.at(static_cast<std::size_t>(host.idx())).kind;
}

net::Rate TrafficControl::link_rate(net::HostId host) const {
  return fabric_.egress(host).rate();
}

std::uint64_t TrafficControl::reconfig_count(net::HostId host) const {
  return reconfigs_.at(static_cast<std::size_t>(host.idx()));
}

Status TrafficControl::exec(const std::string& command_line) {
  ParseResult parsed = parse_command(command_line);
  if (!parsed.ok) return Status::fail("parse error: " + parsed.error);
  Status s = apply(parsed.command);
  if (s.ok) history_.push_back(command_line);
  return s;
}

Status TrafficControl::apply(const Command& command) {
  return std::visit(
      [this](const auto& cmd) -> Status {
        using T = std::decay_t<decltype(cmd)>;
        if constexpr (std::is_same_v<T, QdiscAddCmd>) return apply_qdisc_add(cmd);
        else if constexpr (std::is_same_v<T, QdiscDelCmd>) return apply_qdisc_del(cmd);
        else if constexpr (std::is_same_v<T, ClassAddCmd>) return apply_class(cmd);
        else if constexpr (std::is_same_v<T, ClassDelCmd>) return apply_class_del(cmd);
        else if constexpr (std::is_same_v<T, FilterAddCmd>) return apply_filter_add(cmd);
        else return apply_filter_del(cmd);
      },
      command);
}

Status TrafficControl::apply_qdisc_add(const QdiscAddCmd& cmd) {
  net::HostId host = resolve_device(cmd.dev);
  if (!host.valid()) return Status::fail("unknown device '" + cmd.dev + "'");
  DeviceState& dev = devices_[static_cast<std::size_t>(host.idx())];
  if (dev.handle.major != 0 && !cmd.replace) {
    return Status::fail("root qdisc already exists (use replace)");
  }
  net::EgressPort& port = fabric_.egress(host);
  std::unique_ptr<net::Qdisc> qdisc;
  switch (cmd.spec.kind) {
    case QdiscKind::kPfifo:
      qdisc = std::make_unique<net::PfifoQdisc>();
      break;
    case QdiscKind::kPrio:
      qdisc = std::make_unique<net::PrioQdisc>(cmd.spec.prio_bands);
      break;
    case QdiscKind::kHtb:
      qdisc = std::make_unique<net::HtbQdisc>(port.rate(), cmd.spec.htb_default);
      break;
  }
  port.set_qdisc(std::move(qdisc));
  port.classifier().clear();
  dev.kind = cmd.spec.kind;
  dev.handle = cmd.spec.handle;
  ++reconfigs_[static_cast<std::size_t>(host.idx())];
  return Status::good();
}

Status TrafficControl::apply_qdisc_del(const QdiscDelCmd& cmd) {
  net::HostId host = resolve_device(cmd.dev);
  if (!host.valid()) return Status::fail("unknown device '" + cmd.dev + "'");
  DeviceState& dev = devices_[static_cast<std::size_t>(host.idx())];
  if (dev.handle.major == 0) return Status::fail("no root qdisc configured");
  net::EgressPort& port = fabric_.egress(host);
  port.set_qdisc(std::make_unique<net::PfifoQdisc>());
  port.classifier().clear();
  dev = DeviceState{};
  ++reconfigs_[static_cast<std::size_t>(host.idx())];
  return Status::good();
}

Status TrafficControl::apply_class(const ClassAddCmd& cmd) {
  net::HostId host = resolve_device(cmd.dev);
  if (!host.valid()) return Status::fail("unknown device '" + cmd.dev + "'");
  DeviceState& dev = devices_[static_cast<std::size_t>(host.idx())];
  if (dev.kind != QdiscKind::kHtb) {
    return Status::fail("classes require an htb root qdisc");
  }
  if (cmd.spec.parent != dev.handle) {
    return Status::fail("parent handle does not match root qdisc");
  }
  if (cmd.spec.classid.major != dev.handle.major) {
    return Status::fail("classid major does not match root qdisc");
  }
  if (cmd.spec.rate <= net::Rate{0.0}) return Status::fail("class rate must be positive");
  auto& htb = static_cast<net::HtbQdisc&>(fabric_.egress(host).qdisc());
  net::HtbClassConfig config;
  config.minor = cmd.spec.classid.minor;
  config.rate = cmd.spec.rate;
  config.ceil = cmd.spec.ceil.value_or(cmd.spec.rate);
  config.burst = cmd.spec.burst;
  config.cburst = cmd.spec.cburst;
  config.prio = cmd.spec.prio;
  config.quantum = cmd.spec.quantum;
  bool ok = cmd.change ? htb.change_class(config) : htb.add_class(config);
  if (!ok) {
    return Status::fail(cmd.change ? "class does not exist or config invalid"
                                   : "class already exists or config invalid");
  }
  // A class change can unblock or re-order service; re-poll the link.
  fabric_.egress(host).kick();
  ++reconfigs_[static_cast<std::size_t>(host.idx())];
  return Status::good();
}

Status TrafficControl::apply_class_del(const ClassDelCmd& cmd) {
  net::HostId host = resolve_device(cmd.dev);
  if (!host.valid()) return Status::fail("unknown device '" + cmd.dev + "'");
  DeviceState& dev = devices_[static_cast<std::size_t>(host.idx())];
  if (dev.kind != QdiscKind::kHtb) {
    return Status::fail("classes require an htb root qdisc");
  }
  auto& htb = static_cast<net::HtbQdisc&>(fabric_.egress(host).qdisc());
  if (!htb.delete_class(cmd.classid.minor)) {
    return Status::fail("class missing or backlogged");
  }
  ++reconfigs_[static_cast<std::size_t>(host.idx())];
  return Status::good();
}

Status TrafficControl::apply_filter_add(const FilterAddCmd& cmd) {
  net::HostId host = resolve_device(cmd.dev);
  if (!host.valid()) return Status::fail("unknown device '" + cmd.dev + "'");
  DeviceState& dev = devices_[static_cast<std::size_t>(host.idx())];
  if (cmd.parent != dev.handle) {
    return Status::fail("filter parent does not match root qdisc");
  }
  if (cmd.spec.flowid.major != dev.handle.major) {
    return Status::fail("filter flowid is not a class of the root qdisc");
  }
  net::FilterRule rule;
  rule.pref = cmd.spec.pref;
  rule.src_port = cmd.spec.sport;
  rule.dst_port = cmd.spec.dport;
  // prio band numbering is 1-based in flowids, 0-based internally; htb
  // classes are addressed directly by minor.
  switch (dev.kind) {
    case QdiscKind::kPrio:
      if (cmd.spec.flowid.minor == 0) return Status::fail("bad prio flowid");
      rule.target_band = net::BandId{cmd.spec.flowid.minor - 1};
      break;
    case QdiscKind::kHtb:
      rule.target_band = net::BandId{cmd.spec.flowid.minor};
      break;
    case QdiscKind::kPfifo:
      // Legal but meaningless on a classless qdisc, as in Linux.
      rule.target_band = net::BandId{0};
      break;
  }
  fabric_.egress(host).classifier().upsert(rule);
  ++reconfigs_[static_cast<std::size_t>(host.idx())];
  return Status::good();
}

Status TrafficControl::apply_filter_del(const FilterDelCmd& cmd) {
  net::HostId host = resolve_device(cmd.dev);
  if (!host.valid()) return Status::fail("unknown device '" + cmd.dev + "'");
  if (!fabric_.egress(host).classifier().remove(cmd.pref)) {
    return Status::fail("no filter at pref " + std::to_string(cmd.pref));
  }
  ++reconfigs_[static_cast<std::size_t>(host.idx())];
  return Status::good();
}

}  // namespace tls::tc
