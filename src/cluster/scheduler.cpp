#include "cluster/scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <tuple>

namespace tls::cluster {

const char* to_string(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kPsAgnostic: return "ps-agnostic";
    case SchedulerPolicy::kPsAware: return "ps-aware";
  }
  return "?";
}

const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kShareBand: return "share-band";
    case AdmissionPolicy::kQueue: return "queue";
    case AdmissionPolicy::kReject: return "reject";
  }
  return "?";
}

const char* to_string(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kPlaced: return "placed";
    case AdmissionOutcome::kQueued: return "queued";
    case AdmissionOutcome::kRejected: return "rejected";
  }
  return "?";
}

OnlineScheduler::OnlineScheduler(int num_hosts, SchedulerPolicy policy,
                                 AdmissionPolicy admission, int ps_band_limit)
    : policy_(policy),
      admission_(admission),
      band_limit_(ps_band_limit),
      tasks_(static_cast<std::size_t>(num_hosts), 0),
      ps_(static_cast<std::size_t>(num_hosts), 0) {
  if (num_hosts < 2) throw std::invalid_argument("need at least 2 hosts");
  if (ps_band_limit < 0) throw std::invalid_argument("ps_band_limit < 0");
}

net::HostId OnlineScheduler::pick_ps_host(bool respect_limit) const {
  net::HostId best = net::kNoHost;
  for (net::HostId h{0}; h < net::HostId{num_hosts()}; ++h) {
    auto hi = static_cast<std::size_t>(h.idx());
    if (respect_limit && band_limit_ > 0 && ps_[hi] >= band_limit_) continue;
    if (best == net::kNoHost) {
      best = h;
      continue;
    }
    auto bi = static_cast<std::size_t>(best.idx());
    bool better;
    if (policy_ == SchedulerPolicy::kPsAware) {
      better = std::tie(ps_[hi], tasks_[hi]) < std::tie(ps_[bi], tasks_[bi]);
    } else {
      better = tasks_[hi] < tasks_[bi];
    }
    if (better) best = h;
  }
  return best;
}

Admission OnlineScheduler::try_place(const dl::JobSpec& spec) {
  Admission result;
  // Band exhaustion is probed with the *first* shard's candidate set: when
  // no host can take one more PS without passing the band budget, the
  // cluster is exhausted for this job as a whole.
  if (band_limit_ > 0 && admission_ != AdmissionPolicy::kShareBand &&
      pick_ps_host(/*respect_limit=*/true) == net::kNoHost) {
    result.outcome = admission_ == AdmissionPolicy::kQueue
                         ? AdmissionOutcome::kQueued
                         : AdmissionOutcome::kRejected;
    result.ps_colocation = max_ps_colocation();
    return result;
  }
  result.outcome = AdmissionOutcome::kPlaced;
  result.placement = place(spec);
  result.ps_colocation = max_ps_colocation();
  return result;
}

dl::JobPlacement OnlineScheduler::place(const dl::JobSpec& spec) {
  if (spec.num_workers > num_hosts() - 1) {
    throw std::invalid_argument("more workers than non-PS hosts");
  }
  if (spec.num_ps < 1) throw std::invalid_argument("num_ps < 1");
  dl::JobPlacement placement;
  // Place PS shards one at a time so later shards see earlier ones' load.
  // A shard prefers hosts under the band budget and falls back to plain
  // least-loaded when every host is at it (the share-band regime).
  for (int p = 0; p < spec.num_ps; ++p) {
    net::HostId host = pick_ps_host(/*respect_limit=*/true);
    if (host == net::kNoHost) host = pick_ps_host(/*respect_limit=*/false);
    placement.ps_hosts.push_back(host);
    ++ps_[static_cast<std::size_t>(host.idx())];
    ++tasks_[static_cast<std::size_t>(host.idx())];
  }
  // Workers: one per least-loaded host, excluding the first PS host (the
  // paper's layout keeps the PS's own host free of this job's workers).
  std::vector<net::HostId> order(static_cast<std::size_t>(num_hosts()));
  std::iota(order.begin(), order.end(), net::HostId{0});
  std::stable_sort(order.begin(), order.end(), [&](net::HostId a, net::HostId b) {
    return tasks_[static_cast<std::size_t>(a.idx())] <
           tasks_[static_cast<std::size_t>(b.idx())];
  });
  for (net::HostId h : order) {
    if (h == placement.ps_hosts.front()) continue;
    if (static_cast<int>(placement.worker_hosts.size()) == spec.num_workers) {
      break;
    }
    placement.worker_hosts.push_back(h);
    ++tasks_[static_cast<std::size_t>(h.idx())];
  }
  return placement;
}

void OnlineScheduler::remove(const dl::JobSpec& spec,
                             const dl::JobPlacement& placement) {
  for (int p = 0; p < spec.num_ps; ++p) {
    auto hi = static_cast<std::size_t>(placement.ps_shard_host(p).idx());
    --ps_[hi];
    --tasks_[hi];
  }
  for (net::HostId h : placement.worker_hosts) {
    --tasks_[static_cast<std::size_t>(h.idx())];
  }
}

int OnlineScheduler::ps_count(net::HostId host) const {
  return ps_.at(static_cast<std::size_t>(host.idx()));
}

int OnlineScheduler::task_count(net::HostId host) const {
  return tasks_.at(static_cast<std::size_t>(host.idx()));
}

int OnlineScheduler::max_ps_colocation() const {
  return *std::max_element(ps_.begin(), ps_.end());
}

}  // namespace tls::cluster
