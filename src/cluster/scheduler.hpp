// Online task scheduler — the paper's Future Work direction #1.
//
// Production schedulers (YARN/Borg/Mesos) place tasks by resource demand
// and are agnostic of a task's *role* in the job, so PS tasks naturally
// pile onto the emptiest host (Section II: "colocation of PS tasks can
// naturally occur"). The paper suggests notifying the scheduler of the
// task type so PS tasks can be spread before the job starts. Both policies
// are implemented here so the bench can quantify the difference and how it
// composes with TensorLights.
#pragma once

#include <vector>

#include "dl/job.hpp"

namespace tls::cluster {

enum class SchedulerPolicy {
  /// Role-agnostic least-loaded placement (task count as the load proxy;
  /// ties break toward the lowest host id, as a deterministic bin-packer
  /// would). PS colocation emerges on symmetric clusters.
  kPsAgnostic,
  /// PS-aware: the PS lands on the host with the fewest PS tasks first,
  /// least total load second — spreading the fan-out burst sources.
  kPsAware,
};

const char* to_string(SchedulerPolicy policy);

/// What the scheduler does when admitting one more job would push some
/// host past its PS band budget (tc offers a bounded number of distinct
/// bands — the paper uses 6 — so past that point priorities stop being
/// distinct). The paper's testbed never leaves the share regime; dynamic
/// cluster scenarios exercise all three.
enum class AdmissionPolicy {
  /// Admit anyway; colocated jobs beyond the budget share bands (the
  /// controller's band_for_rank already folds ranks together).
  kShareBand,
  /// Hold the job until a departure frees a band slot (the caller owns the
  /// queue; try_place simply reports kQueued without mutating state).
  kQueue,
  /// Refuse the job outright.
  kReject,
};

const char* to_string(AdmissionPolicy policy);

enum class AdmissionOutcome { kPlaced, kQueued, kRejected };

const char* to_string(AdmissionOutcome outcome);

/// Typed admission result. `placement` is meaningful only for kPlaced (the
/// scheduler's load accounting has then already been charged); kQueued and
/// kRejected leave the scheduler untouched so the caller can retry later.
struct Admission {
  AdmissionOutcome outcome = AdmissionOutcome::kRejected;
  dl::JobPlacement placement;
  /// Largest per-host PS count after placement (kPlaced) or the value that
  /// triggered the refusal (kQueued/kRejected).
  int ps_colocation = 0;
};

/// Stateful online scheduler over a fixed host pool.
class OnlineScheduler {
 public:
  /// `ps_band_limit` caps PS jobs per host before the admission policy
  /// kicks in (0 = unlimited, the seed behaviour). A limit of 6 models the
  /// paper's 6-band tc budget.
  OnlineScheduler(int num_hosts, SchedulerPolicy policy,
                  AdmissionPolicy admission = AdmissionPolicy::kShareBand,
                  int ps_band_limit = 0);

  /// Places one arriving job: chooses one host per PS shard by the policy,
  /// then spreads workers one per least-loaded host, excluding the first
  /// PS host. Updates internal load accounting. Requires spec.num_ps >= 1
  /// and spec.num_workers <= num_hosts - 1.
  dl::JobPlacement place(const dl::JobSpec& spec);

  /// Admission-aware placement for dynamic clusters. When every candidate
  /// PS host already carries `ps_band_limit` PS jobs, the admission policy
  /// decides: kShareBand places anyway (band sharing), kQueue/kReject
  /// report the refusal without touching the load accounting. Structural
  /// impossibilities (more workers than hosts) still throw — they are
  /// configuration errors, not load conditions.
  Admission try_place(const dl::JobSpec& spec);

  /// Releases a departing job's tasks.
  void remove(const dl::JobSpec& spec, const dl::JobPlacement& placement);

  int ps_count(net::HostId host) const;
  int task_count(net::HostId host) const;
  int num_hosts() const { return static_cast<int>(tasks_.size()); }

  /// Largest number of PS tasks sharing one host right now — the
  /// contention indicator Table I indexes.
  int max_ps_colocation() const;

  AdmissionPolicy admission_policy() const { return admission_; }
  int ps_band_limit() const { return band_limit_; }

 private:
  /// Least-loaded candidate under the policy. With `respect_limit`, hosts
  /// already at the PS band budget are excluded; returns HostId{-1} when
  /// every host is at the budget (band exhaustion).
  net::HostId pick_ps_host(bool respect_limit) const;

  SchedulerPolicy policy_;
  AdmissionPolicy admission_;
  int band_limit_;          // 0 = unlimited
  std::vector<int> tasks_;  // total tasks per host
  std::vector<int> ps_;     // PS tasks per host
};

}  // namespace tls::cluster
