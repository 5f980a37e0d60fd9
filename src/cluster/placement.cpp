#include "cluster/placement.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace tls::cluster {

int PsPlacement::total_jobs() const {
  return std::accumulate(group_sizes.begin(), group_sizes.end(), 0);
}

namespace {
std::string render(const std::vector<int>& sizes) {
  std::ostringstream os;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i) os << ", ";
    os << sizes[i];
  }
  return os.str();
}
}  // namespace

PsPlacement even_groups(int num_jobs, int num_groups) {
  if (num_jobs < 1 || num_groups < 1 || num_groups > num_jobs) {
    throw std::invalid_argument("even_groups: bad arguments");
  }
  PsPlacement p;
  int base = num_jobs / num_groups;
  int extra = num_jobs % num_groups;
  // Smallest groups first, matching Table I's "5, 5, 5, 6" ordering.
  for (int k = 0; k < num_groups; ++k) {
    p.group_sizes.push_back(base + (k >= num_groups - extra ? 1 : 0));
  }
  p.name = render(p.group_sizes);
  return p;
}

PsPlacement table1(int index, int num_jobs) {
  auto even = [num_jobs](int groups) {
    return even_groups(num_jobs, std::min(groups, num_jobs));
  };
  PsPlacement p;
  switch (index) {
    case 1: p = even(1); break;
    case 2: {
      // One job cannot be split; it gets #1's single group.
      if (num_jobs < 2) {
        p = even(1);
        break;
      }
      // The paper's irregular "5, 16": roughly a 1/4 vs 3/4 split.
      int small = std::max(1, num_jobs * 5 / 21);
      p.group_sizes = {small, num_jobs - small};
      p.name = render(p.group_sizes);
      break;
    }
    case 3: p = even(2); break;
    case 4: p = even(3); break;
    case 5: p = even(4); break;
    case 6: p = even(5); break;
    case 7: p = even(7); break;
    case 8: p = even(num_jobs); break;
    default:
      throw std::invalid_argument("table1 index must be in [1, 8]");
  }
  p.index = index;
  return p;
}

std::vector<PsPlacement> table1_all(int num_jobs) {
  std::vector<PsPlacement> all;
  for (int i = 1; i <= 8; ++i) all.push_back(table1(i, num_jobs));
  return all;
}

std::vector<dl::JobPlacement> assign_tasks(const PsPlacement& placement,
                                           int num_hosts,
                                           int workers_per_job, int num_ps) {
  if (num_ps < 1 || num_ps > num_hosts) {
    throw std::invalid_argument("num_ps must be in [1, num_hosts]");
  }
  if (placement.num_groups() > num_hosts) {
    throw std::invalid_argument("more PS groups than hosts");
  }
  if (workers_per_job > num_hosts - 1 || workers_per_job < 1) {
    throw std::invalid_argument("workers_per_job must be in [1, num_hosts-1]");
  }
  std::vector<dl::JobPlacement> jobs;
  jobs.reserve(static_cast<std::size_t>(placement.total_jobs()));
  for (int group = 0; group < placement.num_groups(); ++group) {
    for (int j = 0; j < placement.group_sizes[static_cast<std::size_t>(group)];
         ++j) {
      dl::JobPlacement jp;
      jp.ps_hosts.reserve(static_cast<std::size_t>(num_ps));
      for (int p = 0; p < num_ps; ++p) {
        jp.ps_hosts.push_back(net::HostId{(group + p) % num_hosts});
      }
      jp.worker_hosts.reserve(static_cast<std::size_t>(workers_per_job));
      for (int w = 0; w < workers_per_job; ++w) {
        // Walk hosts after the first PS host, skipping that host itself.
        jp.worker_hosts.push_back(net::HostId{(group + 1 + w) % num_hosts});
      }
      jobs.push_back(std::move(jp));
    }
  }
  return jobs;
}

}  // namespace tls::cluster
