#include "cluster/scheduler.hpp"

#include <gtest/gtest.h>

namespace tls::cluster {
namespace {

dl::JobSpec job(int workers, int num_ps = 1) {
  dl::JobSpec spec;
  spec.num_workers = workers;
  spec.num_ps = num_ps;
  return spec;
}

TEST(Scheduler, AgnosticColocatesPsOnSymmetricCluster) {
  // The paper's Section II observation: a role-agnostic least-loaded
  // scheduler piles PS tasks onto the same host.
  OnlineScheduler sched(5, SchedulerPolicy::kPsAgnostic);
  for (int j = 0; j < 4; ++j) {
    dl::JobPlacement p = sched.place(job(4));
    EXPECT_EQ(p.worker_hosts.size(), 4u);
  }
  EXPECT_GE(sched.max_ps_colocation(), 2);
}

TEST(Scheduler, AwareSpreadsPs) {
  OnlineScheduler sched(5, SchedulerPolicy::kPsAware);
  for (int j = 0; j < 5; ++j) sched.place(job(4));
  EXPECT_EQ(sched.max_ps_colocation(), 1);
}

TEST(Scheduler, AwareColocatesOnlyWhenForced) {
  OnlineScheduler sched(4, SchedulerPolicy::kPsAware);
  for (int j = 0; j < 6; ++j) sched.place(job(3));
  // 6 PSes over 4 hosts: best achievable colocation is 2.
  EXPECT_EQ(sched.max_ps_colocation(), 2);
}

TEST(Scheduler, WorkersExcludePsHostAndAreDistinct) {
  OnlineScheduler sched(6, SchedulerPolicy::kPsAware);
  dl::JobPlacement p = sched.place(job(5));
  EXPECT_EQ(p.worker_hosts.size(), 5u);
  std::set<net::HostId> hosts(p.worker_hosts.begin(), p.worker_hosts.end());
  EXPECT_EQ(hosts.size(), 5u);
  EXPECT_EQ(hosts.count(p.ps_shard_host(0)), 0u);
}

TEST(Scheduler, SinglePsJobGetsExactlyOnePsHost) {
  OnlineScheduler sched(4, SchedulerPolicy::kPsAware);
  sched.place(job(3));  // host 0 now carries a PS
  dl::JobPlacement p = sched.place(job(3));
  EXPECT_EQ(p.ps_hosts, std::vector<net::HostId>{net::HostId{1}});
  EXPECT_EQ(p.ps_count(), 1);
}

TEST(Scheduler, LoadAccountingAndRemove) {
  OnlineScheduler sched(4, SchedulerPolicy::kPsAware);
  dl::JobSpec spec = job(3);
  dl::JobPlacement p = sched.place(spec);
  int total = 0;
  for (net::HostId h = tls::net::HostId{0}; h < tls::net::HostId{4}; ++h) total += sched.task_count(h);
  EXPECT_EQ(total, 4);  // 1 PS + 3 workers
  sched.remove(spec, p);
  for (net::HostId h = tls::net::HostId{0}; h < tls::net::HostId{4}; ++h) {
    EXPECT_EQ(sched.task_count(h), 0);
    EXPECT_EQ(sched.ps_count(h), 0);
  }
}

TEST(Scheduler, MultiPsShardsSpreadUnderAware) {
  OnlineScheduler sched(6, SchedulerPolicy::kPsAware);
  dl::JobSpec spec = job(3, /*num_ps=*/4);
  dl::JobPlacement p = sched.place(spec);
  EXPECT_EQ(p.ps_count(), 4);
  std::set<net::HostId> shard_hosts(p.ps_hosts.begin(), p.ps_hosts.end());
  EXPECT_EQ(shard_hosts.size(), 4u);  // all on distinct hosts
}

TEST(Scheduler, Validation) {
  EXPECT_THROW(OnlineScheduler(1, SchedulerPolicy::kPsAware),
               std::invalid_argument);
  OnlineScheduler sched(3, SchedulerPolicy::kPsAware);
  EXPECT_THROW(sched.place(job(3)), std::invalid_argument);
}

TEST(Scheduler, PolicyNames) {
  EXPECT_STREQ(to_string(SchedulerPolicy::kPsAgnostic), "ps-agnostic");
  EXPECT_STREQ(to_string(SchedulerPolicy::kPsAware), "ps-aware");
}

TEST(Scheduler, DeparturesReopenCapacity) {
  OnlineScheduler sched(5, SchedulerPolicy::kPsAware);
  dl::JobSpec spec = job(4);
  std::vector<dl::JobPlacement> placements;
  for (int j = 0; j < 5; ++j) placements.push_back(sched.place(spec));
  EXPECT_EQ(sched.max_ps_colocation(), 1);
  sched.remove(spec, placements[0]);
  dl::JobPlacement p = sched.place(spec);
  // The freed PS slot is reused.
  EXPECT_EQ(p.ps_hosts, placements[0].ps_hosts);
}

// ---------------------------------------------------------------------------
// Admission-aware placement (try_place): the band budget turns placement
// into a three-way decision — place, queue, or reject.

TEST(Scheduler, TryPlaceAdmitsUpToTheBandLimit) {
  OnlineScheduler sched(4, SchedulerPolicy::kPsAware,
                        AdmissionPolicy::kQueue, /*ps_band_limit=*/1);
  for (int j = 0; j < 4; ++j) {
    Admission a = sched.try_place(job(2));
    EXPECT_EQ(a.outcome, AdmissionOutcome::kPlaced) << "job " << j;
    EXPECT_EQ(a.ps_colocation, 1);
  }
  EXPECT_EQ(sched.max_ps_colocation(), 1);
}

TEST(Scheduler, TryPlaceQueuesOnBandExhaustionWithoutMutating) {
  OnlineScheduler sched(4, SchedulerPolicy::kPsAware,
                        AdmissionPolicy::kQueue, /*ps_band_limit=*/1);
  std::vector<std::pair<dl::JobSpec, dl::JobPlacement>> admitted;
  for (int j = 0; j < 4; ++j) {
    dl::JobSpec spec = job(2);
    admitted.emplace_back(spec, sched.try_place(spec).placement);
  }
  int before = 0;
  for (net::HostId h{0}; h < net::HostId{4}; ++h) before += sched.task_count(h);

  Admission held = sched.try_place(job(2));
  EXPECT_EQ(held.outcome, AdmissionOutcome::kQueued);
  EXPECT_EQ(held.ps_colocation, 1);  // the budget that triggered the refusal
  int after = 0;
  for (net::HostId h{0}; h < net::HostId{4}; ++h) after += sched.task_count(h);
  EXPECT_EQ(after, before);  // queue/reject never charge accounting

  // A departure frees a band slot; the retry then lands.
  sched.remove(admitted[0].first, admitted[0].second);
  EXPECT_EQ(sched.try_place(job(2)).outcome, AdmissionOutcome::kPlaced);
}

TEST(Scheduler, TryPlaceRejectsOnBandExhaustion) {
  OnlineScheduler sched(4, SchedulerPolicy::kPsAware,
                        AdmissionPolicy::kReject, /*ps_band_limit=*/1);
  for (int j = 0; j < 4; ++j) sched.try_place(job(2));
  Admission refused = sched.try_place(job(2));
  EXPECT_EQ(refused.outcome, AdmissionOutcome::kRejected);
  for (net::HostId h{0}; h < net::HostId{4}; ++h) {
    EXPECT_EQ(sched.ps_count(h), 1);
  }
}

TEST(Scheduler, ShareBandPlacesPastTheLimit) {
  OnlineScheduler sched(4, SchedulerPolicy::kPsAware,
                        AdmissionPolicy::kShareBand, /*ps_band_limit=*/1);
  for (int j = 0; j < 4; ++j) sched.try_place(job(2));
  Admission a = sched.try_place(job(2));
  EXPECT_EQ(a.outcome, AdmissionOutcome::kPlaced);
  EXPECT_EQ(a.ps_colocation, 2);  // budget exceeded, bands now shared
  EXPECT_EQ(sched.max_ps_colocation(), 2);
}

TEST(Scheduler, ZeroLimitDisablesAdmissionControl) {
  OnlineScheduler sched(3, SchedulerPolicy::kPsAware,
                        AdmissionPolicy::kReject, /*ps_band_limit=*/0);
  for (int j = 0; j < 12; ++j) {
    EXPECT_EQ(sched.try_place(job(2)).outcome, AdmissionOutcome::kPlaced);
  }
  EXPECT_EQ(sched.max_ps_colocation(), 4);
}

TEST(Scheduler, TryPlaceStillThrowsOnStructuralImpossibility) {
  // Too many workers is a configuration error, not a load condition — it
  // would never succeed no matter how many jobs depart.
  OnlineScheduler sched(3, SchedulerPolicy::kPsAware,
                        AdmissionPolicy::kQueue, /*ps_band_limit=*/1);
  EXPECT_THROW(sched.try_place(job(3)), std::invalid_argument);
}

TEST(Scheduler, AdmissionAccessorsAndNames) {
  OnlineScheduler sched(3, SchedulerPolicy::kPsAware,
                        AdmissionPolicy::kQueue, /*ps_band_limit=*/6);
  EXPECT_EQ(sched.admission_policy(), AdmissionPolicy::kQueue);
  EXPECT_EQ(sched.ps_band_limit(), 6);
  EXPECT_STREQ(to_string(AdmissionPolicy::kShareBand), "share-band");
  EXPECT_STREQ(to_string(AdmissionPolicy::kQueue), "queue");
  EXPECT_STREQ(to_string(AdmissionPolicy::kReject), "reject");
  EXPECT_STREQ(to_string(AdmissionOutcome::kPlaced), "placed");
  EXPECT_STREQ(to_string(AdmissionOutcome::kQueued), "queued");
  EXPECT_STREQ(to_string(AdmissionOutcome::kRejected), "rejected");
}

}  // namespace
}  // namespace tls::cluster
