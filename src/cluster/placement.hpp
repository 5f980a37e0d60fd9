// PS placement schemes (Table I of the paper) and task-to-host assignment.
//
// For M concurrent jobs, a placement is written m_1,...,m_K with
// sum(m_k) = M: group k colocates m_k parameter servers on one host.
// Placement #1 ("21") puts every PS on one host — the shared-PS rack-scale
// design of Parameter Hub; #8 ("1,...,1") gives every host one PS.
#pragma once

#include <string>
#include <vector>

#include "dl/job.hpp"

namespace tls::cluster {

struct PsPlacement {
  /// Table index (1-8) when this came from Table I, 0 for custom.
  int index = 0;
  /// Display form, e.g. "5, 5, 5, 6".
  std::string name;
  /// Jobs whose PSes share a host, per group.
  std::vector<int> group_sizes;

  int total_jobs() const;
  int num_groups() const { return static_cast<int>(group_sizes.size()); }
};

/// Splits `num_jobs` into `num_groups` sizes as evenly as possible,
/// smallest groups first (e.g. 21 into 4 -> 5,5,5,6).
PsPlacement even_groups(int num_jobs, int num_groups);

/// Table I entry `index` in [1, 8] for `num_jobs` concurrent jobs.
/// Index #2 is the paper's irregular "5, 16" split (scaled for other M);
/// all others are even splits into 1, 2, 3, 4, 5, 7, and M groups. With
/// fewer jobs than groups, every job gets a group of its own.
PsPlacement table1(int index, int num_jobs = 21);

/// All eight Table I placements.
std::vector<PsPlacement> table1_all(int num_jobs = 21);

/// Expands a PS placement into per-job task placements on `num_hosts`
/// hosts. PS shard p of group k's jobs lands on host (k + p) mod
/// num_hosts: with one PS per job, group k's PSes share host k; with
/// more (the paper's "general case where one DL job has multiple PSes")
/// the shards walk the following hosts. Each job's workers are spread
/// one-per-host over the hosts after its first shard's host (the paper's
/// "20 workers distributed evenly on the rest of 20 hosts"). Requires
/// num_ps in [1, num_hosts], num_groups <= num_hosts and workers_per_job
/// in [1, num_hosts - 1]; throws std::invalid_argument otherwise.
std::vector<dl::JobPlacement> assign_tasks(const PsPlacement& placement,
                                           int num_hosts,
                                           int workers_per_job,
                                           int num_ps = 1);

}  // namespace tls::cluster
