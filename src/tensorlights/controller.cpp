#include "tensorlights/controller.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"

namespace tls::core {

namespace {
/// Filter preference for one PS shard's steering rule: unique per
/// (job, shard), stable across re-ranks so re-issuing a filter replaces
/// the old mapping. Up to 64 PS shards per job.
int filter_pref(std::int32_t job_id, int shard) {
  return 1000 + job_id * 64 + shard;
}

/// Filter preference for a gradient-steering rule on a worker host
/// (two-sided mode); disjoint from the model-update prefs above.
int gradient_pref(std::int32_t job_id, int shard) {
  return 200000 + job_id * 64 + shard;
}
}  // namespace

Controller::Controller(sim::Simulator& simulator, tc::TrafficControl& control,
                       ControllerConfig config)
    : sim_(simulator),
      control_(control),
      config_(config),
      rng_(simulator.rng().fork("tensorlights")) {
  if (config_.max_bands < 1) throw std::invalid_argument("max_bands < 1");
  int plane_limit = config_.data_plane == DataPlane::kHtb ? 8 : 15;
  if (config_.max_bands > plane_limit) {
    // htb class prio is 0..7; prio offers 16 bands and we reserve the last
    // one for default traffic. Respect the data plane's real limits.
    throw std::invalid_argument("max_bands exceeds data-plane limit");
  }
  if (config_.policy == PolicyKind::kTlsRR) {
    if (config_.rotation_interval <= sim::Time{0}) {
      throw std::invalid_argument("rotation_interval must be positive");
    }
    rotation_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, config_.rotation_interval, [this] { rotate(); });
    rotation_timer_->start();
  }
}

Controller::~Controller() = default;

void Controller::exec_or_die(const std::string& command) {
  tc::Status s = control_.exec(command);
  if (!s.ok) {
    throw std::runtime_error("tensorlights: tc command failed: " + s.error +
                             " [" + command + "]");
  }
}

void Controller::on_job_arrival(const dl::JobSpec& spec,
                                const dl::JobPlacement& placement) {
  if (config_.policy == PolicyKind::kFifo) return;
  std::uint64_t arrival_seq = arrivals_++;
  std::uint64_t random_key = rng_.next();
  std::vector<net::HostId>& hosts = job_hosts_[spec.job_id];
  for (int p = 0; p < spec.num_ps; ++p) {
    net::HostId host = placement.ps_shard_host(p);
    HostState& state = hosts_[host];
    if (!state.configured) configure_host(host);
    auto jit = std::find_if(
        state.jobs.begin(), state.jobs.end(),
        [&](const ManagedJob& j) { return j.job_id == spec.job_id; });
    if (jit == state.jobs.end()) {
      ManagedJob job;
      job.job_id = spec.job_id;
      job.update_bytes = spec.model.update_bytes();
      job.arrival_seq = arrival_seq;
      job.random_key = random_key;
      state.jobs.push_back(job);
      jit = state.jobs.end() - 1;
      hosts.push_back(host);
    }
    jit->shards.push_back(ManagedShard{p, spec.ps_shard_port(p)});
  }
  for (net::HostId host : hosts) install_filters(host);

  if (config_.prioritize_gradients) {
    GradientState& grad = gradient_jobs_[spec.job_id];
    grad.worker_hosts = placement.worker_hosts;
    for (int p = 0; p < spec.num_ps; ++p) {
      grad.ps_ports.push_back(spec.ps_shard_port(p));
    }
    install_gradient_filters();
  }
}

void Controller::on_job_departure(const dl::JobSpec& spec,
                                  const dl::JobPlacement& placement) {
  if (config_.policy == PolicyKind::kFifo) return;
  (void)placement;
  auto hosts_it = job_hosts_.find(spec.job_id);
  if (hosts_it == job_hosts_.end()) return;
  for (net::HostId host : hosts_it->second) {
    auto hit = hosts_.find(host);
    if (hit == hosts_.end()) continue;
    HostState& state = hit->second;
    auto jit = std::find_if(
        state.jobs.begin(), state.jobs.end(),
        [&](const ManagedJob& j) { return j.job_id == spec.job_id; });
    if (jit == state.jobs.end()) continue;
    for (const ManagedShard& shard : jit->shards) {
      exec_or_die("tc filter del dev " + tc::device_name(host) + " pref " +
                  std::to_string(filter_pref(spec.job_id, shard.shard)));
    }
    state.jobs.erase(jit);
    // Remaining jobs shift up in priority (batch-mode reassignment on
    // departure, Section IV-B).
    if (!state.jobs.empty()) install_filters(host);
  }
  job_hosts_.erase(hosts_it);

  auto grad_it = gradient_jobs_.find(spec.job_id);
  if (grad_it != gradient_jobs_.end()) {
    std::set<net::HostId> worker_hosts(grad_it->second.worker_hosts.begin(),
                                       grad_it->second.worker_hosts.end());
    for (net::HostId host : worker_hosts) {
      for (std::size_t p = 0; p < grad_it->second.ps_ports.size(); ++p) {
        exec_or_die("tc filter del dev " + tc::device_name(host) + " pref " +
                    std::to_string(gradient_pref(spec.job_id,
                                                 static_cast<int>(p))));
      }
    }
    gradient_jobs_.erase(grad_it);
    install_gradient_filters();  // remaining jobs' bands may have shifted
  }
}

void Controller::configure_host(net::HostId host) {
  const std::string dev = tc::device_name(host);
  net::Rate link = control_.link_rate(host);
  std::ostringstream cmd;
  if (config_.data_plane == DataPlane::kHtb) {
    // Root htb whose default class carries unclassified traffic (colocated
    // workers' gradient pushes, control RPCs) with an assured share so
    // prioritized model-update bursts cannot starve it.
    exec_or_die("tc qdisc add dev " + dev + " root handle 1: htb default 3f");
    cmd << "tc class add dev " << dev << " parent 1: classid 1:3f htb rate "
        << tc::format_rate(link * config_.default_class_rate_fraction)
        << " ceil " << tc::format_rate(link) << " prio 7";
    exec_or_die(cmd.str());
    for (int b = 0; b < config_.max_bands; ++b) {
      std::ostringstream c;
      c << "tc class add dev " << dev << " parent 1: classid "
        << tc::Handle{1, static_cast<std::uint16_t>(b + 1)}.str()
        << " htb rate " << tc::format_rate(net::mbps(1)) << " ceil "
        << tc::format_rate(link) << " prio " << b;
      exec_or_die(c.str());
    }
  } else {
    // prio plane: bands 0..max_bands-1 carry jobs, one extra band carries
    // default traffic via a catch-all filter at the lowest preference.
    int bands = config_.max_bands + 1;
    exec_or_die("tc qdisc add dev " + dev + " root handle 1: prio bands " +
                std::to_string(bands));
    exec_or_die("tc filter add dev " + dev + " parent 1: pref 65000 u32 flowid " +
                tc::Handle{1, static_cast<std::uint16_t>(bands)}.str());
  }
  hosts_[host].configured = true;
}

std::vector<int> Controller::ranks_for(const HostState& state) const {
  int n = static_cast<int>(state.jobs.size());
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  auto key_less = [&](int a, int b) {
    const ManagedJob& ja = state.jobs[static_cast<std::size_t>(a)];
    const ManagedJob& jb = state.jobs[static_cast<std::size_t>(b)];
    switch (config_.strategy) {
      case AssignStrategy::kRandom:
        return std::tie(ja.random_key, ja.arrival_seq) <
               std::tie(jb.random_key, jb.arrival_seq);
      case AssignStrategy::kSmallestModelFirst:
        return std::tie(ja.update_bytes, ja.arrival_seq) <
               std::tie(jb.update_bytes, jb.arrival_seq);
      case AssignStrategy::kArrivalOrder:
      default:
        return ja.arrival_seq < jb.arrival_seq;
    }
  };
  std::sort(order.begin(), order.end(), key_less);
  std::vector<int> ranks(static_cast<std::size_t>(n));
  for (int pos = 0; pos < n; ++pos) {
    int rank = static_cast<int>(
        (static_cast<std::uint64_t>(pos) + rotation_offset_) %
        static_cast<std::uint64_t>(n));
    ranks[static_cast<std::size_t>(order[static_cast<std::size_t>(pos)])] = rank;
  }
  return ranks;
}

void Controller::install_filters(net::HostId host) {
  const HostState& state = hosts_.at(host);
  const std::string dev = tc::device_name(host);
  std::vector<int> ranks = ranks_for(state);
  int n = static_cast<int>(state.jobs.size());
  for (int i = 0; i < n; ++i) {
    const ManagedJob& job = state.jobs[static_cast<std::size_t>(i)];
    int band = band_for_rank(ranks[static_cast<std::size_t>(i)], n,
                             config_.max_bands);
    if (TLS_OBS_ACTIVE(sim_.tracer())) {
      sim_.tracer()->band_assign(sim_.now(), host, job.job_id,
                                 net::BandId{band});
    }
    for (const ManagedShard& shard : job.shards) {
      std::ostringstream cmd;
      cmd << "tc filter add dev " << dev << " parent 1: pref "
          << filter_pref(job.job_id, shard.shard) << " u32 match ip sport "
          << shard.port << " 0xffff flowid "
          << tc::Handle{1, static_cast<std::uint16_t>(band + 1)}.str();
      exec_or_die(cmd.str());
    }
  }
}

void Controller::install_gradient_filters() {
  for (const auto& [job_id, grad] : gradient_jobs_) {
    int band = band_of(job_id);
    if (band < 0) continue;
    std::set<net::HostId> worker_hosts(grad.worker_hosts.begin(),
                                       grad.worker_hosts.end());
    for (net::HostId host : worker_hosts) {
      HostState& state = hosts_[host];
      if (!state.configured) configure_host(host);
      for (std::size_t p = 0; p < grad.ps_ports.size(); ++p) {
        std::ostringstream cmd;
        cmd << "tc filter add dev " << tc::device_name(host) << " parent 1: "
            << "pref " << gradient_pref(job_id, static_cast<int>(p))
            << " u32 match ip dport " << grad.ps_ports[p] << " 0xffff flowid "
            << tc::Handle{1, static_cast<std::uint16_t>(band + 1)}.str();
        exec_or_die(cmd.str());
      }
    }
  }
}

void Controller::rotate() {
  ++rotation_offset_;
  ++rotations_;
  if (TLS_OBS_ACTIVE(sim_.tracer())) {
    sim_.tracer()->rotation(sim_.now(),
                            static_cast<std::int64_t>(rotation_offset_));
  }
  for (const auto& [host, state] : hosts_) {
    // Only hosts with actual contention need re-ranking; single-PS hosts
    // keep their lone filter (the paper limits tc churn the same way).
    if (state.jobs.size() >= 2) install_filters(host);
  }
  if (config_.prioritize_gradients) install_gradient_filters();
}

int Controller::rank_of(std::int32_t job_id) const {
  auto it = job_hosts_.find(job_id);
  if (it == job_hosts_.end() || it->second.empty()) return -1;
  net::HostId first =
      *std::min_element(it->second.begin(), it->second.end());
  const HostState& state = hosts_.at(first);
  std::vector<int> ranks = ranks_for(state);
  for (std::size_t i = 0; i < state.jobs.size(); ++i) {
    if (state.jobs[i].job_id == job_id) return ranks[i];
  }
  return -1;
}

int Controller::band_of(std::int32_t job_id) const {
  auto it = job_hosts_.find(job_id);
  if (it == job_hosts_.end() || it->second.empty()) return -1;
  net::HostId first =
      *std::min_element(it->second.begin(), it->second.end());
  const HostState& state = hosts_.at(first);
  int rank = rank_of(job_id);
  if (rank < 0) return -1;
  return band_for_rank(rank, static_cast<int>(state.jobs.size()),
                       config_.max_bands);
}

bool Controller::host_configured(net::HostId host) const {
  auto it = hosts_.find(host);
  return it != hosts_.end() && it->second.configured;
}

int Controller::managed_job_count(net::HostId host) const {
  auto it = hosts_.find(host);
  return it == hosts_.end() ? 0 : static_cast<int>(it->second.jobs.size());
}

}  // namespace tls::core
