#include "cluster/placement.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

namespace tls::cluster {
namespace {

TEST(Placement, EvenGroupsBasic) {
  PsPlacement p = even_groups(21, 4);
  EXPECT_EQ(p.group_sizes, (std::vector<int>{5, 5, 5, 6}));
  EXPECT_EQ(p.name, "5, 5, 5, 6");
  EXPECT_EQ(p.total_jobs(), 21);
}

TEST(Placement, EvenGroupsExactDivision) {
  EXPECT_EQ(even_groups(21, 3).group_sizes, (std::vector<int>{7, 7, 7}));
  EXPECT_EQ(even_groups(21, 7).group_sizes,
            (std::vector<int>{3, 3, 3, 3, 3, 3, 3}));
}

TEST(Placement, EvenGroupsValidation) {
  EXPECT_THROW(even_groups(0, 1), std::invalid_argument);
  EXPECT_THROW(even_groups(5, 0), std::invalid_argument);
  EXPECT_THROW(even_groups(5, 6), std::invalid_argument);
}

TEST(Placement, TableOneMatchesPaper) {
  // Table I of the paper for M = 21.
  EXPECT_EQ(table1(1).group_sizes, (std::vector<int>{21}));
  EXPECT_EQ(table1(2).group_sizes, (std::vector<int>{5, 16}));
  EXPECT_EQ(table1(3).group_sizes, (std::vector<int>{10, 11}));
  EXPECT_EQ(table1(4).group_sizes, (std::vector<int>{7, 7, 7}));
  EXPECT_EQ(table1(5).group_sizes, (std::vector<int>{5, 5, 5, 6}));
  EXPECT_EQ(table1(6).group_sizes, (std::vector<int>{4, 4, 4, 4, 5}));
  EXPECT_EQ(table1(7).group_sizes, (std::vector<int>{3, 3, 3, 3, 3, 3, 3}));
  EXPECT_EQ(table1(8).group_sizes, std::vector<int>(21, 1));
}

TEST(Placement, TableOneIndexRecorded) {
  for (int i = 1; i <= 8; ++i) EXPECT_EQ(table1(i).index, i);
  EXPECT_THROW(table1(0), std::invalid_argument);
  EXPECT_THROW(table1(9), std::invalid_argument);
}

TEST(Placement, TableOneAllTotalsConsistent) {
  for (const PsPlacement& p : table1_all(21)) EXPECT_EQ(p.total_jobs(), 21);
}

TEST(Placement, TableOneScalesToOtherJobCounts) {
  for (int m : {8, 10, 30}) {
    for (const PsPlacement& p : table1_all(m)) {
      EXPECT_EQ(p.total_jobs(), m) << "index " << p.index << " m " << m;
      for (int g : p.group_sizes) EXPECT_GE(g, 1);
    }
  }
}

TEST(Placement, TableOneNeverLeavesAGroupEmpty) {
  // Fewer jobs than a split's groups: every job gets a group of its own,
  // and #2 never splits off an empty second group.
  const int groups[] = {1, 2, 2, 3, 4, 5, 7};
  for (int m = 1; m <= 7; ++m) {
    for (int index = 1; index <= 8; ++index) {
      PsPlacement p = table1(index, m);
      EXPECT_EQ(p.total_jobs(), m) << "index " << index << " m " << m;
      for (int g : p.group_sizes) {
        EXPECT_GE(g, 1) << "index " << index << " m " << m;
      }
      int want = index == 8 ? m : groups[index - 1];
      EXPECT_EQ(p.num_groups(), std::min(want, m))
          << "index " << index << " m " << m;
    }
  }
}

TEST(Placement, HigherIndexMoreUniform) {
  // The paper: "placement with a higher index tends to be more uniform."
  auto max_group = [](const PsPlacement& p) {
    return *std::max_element(p.group_sizes.begin(), p.group_sizes.end());
  };
  auto all = table1_all(21);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(max_group(all[i]), max_group(all[i - 1]))
        << "index " << all[i].index;
  }
}

TEST(AssignTasks, PsHostsFollowGroups) {
  auto jobs = assign_tasks(table1(4, 21), 21, 20);  // 7,7,7
  ASSERT_EQ(jobs.size(), 21u);
  for (int j = 0; j < 21; ++j) {
    const dl::JobPlacement& jp = jobs[static_cast<size_t>(j)];
    EXPECT_EQ(jp.ps_hosts, std::vector<net::HostId>{net::HostId{j / 7}});
  }
}

TEST(AssignTasks, WorkersOnePerHostExcludingPs) {
  auto jobs = assign_tasks(table1(1, 21), 21, 20);
  for (const auto& jp : jobs) {
    EXPECT_EQ(jp.worker_hosts.size(), 20u);
    std::set<net::HostId> hosts(jp.worker_hosts.begin(), jp.worker_hosts.end());
    EXPECT_EQ(hosts.size(), 20u);                 // all distinct
    EXPECT_EQ(hosts.count(jp.ps_shard_host(0)), 0u);  // none on the PS host
  }
}

TEST(AssignTasks, AllHostsGetEqualWorkerLoad) {
  auto jobs = assign_tasks(table1(8, 21), 21, 20);
  std::vector<int> load(21, 0);
  for (const auto& jp : jobs) {
    for (net::HostId h : jp.worker_hosts) ++load[static_cast<size_t>(h.idx())];
  }
  for (int l : load) EXPECT_EQ(l, 20);  // every host hosts 20 workers
}

TEST(AssignTasks, Validation) {
  EXPECT_THROW(assign_tasks(table1(8, 21), 20, 19), std::invalid_argument);
  EXPECT_THROW(assign_tasks(table1(1, 21), 21, 21), std::invalid_argument);
  EXPECT_THROW(assign_tasks(table1(1, 21), 21, 0), std::invalid_argument);
}

TEST(AssignTasksSharded, ShardsWalkFromGroupHost) {
  // Placement #3 of 4 jobs is "2, 2": jobs 0-1 in group 0, jobs 2-3 in
  // group 1. Shard p of group k's jobs lands on host (k + p) mod 8.
  auto jobs = assign_tasks(table1(3, 4), 8, 5, /*num_ps=*/3);
  ASSERT_EQ(jobs.size(), 4u);
  for (int j = 0; j < 4; ++j) {
    const dl::JobPlacement& jp = jobs[static_cast<size_t>(j)];
    const int group = j / 2;
    ASSERT_EQ(jp.ps_count(), 3);
    for (int p = 0; p < 3; ++p) {
      EXPECT_EQ(jp.ps_shard_host(p), net::HostId{(group + p) % 8});
    }
    // Workers walk the hosts after the first shard's host.
    for (int w = 0; w < 5; ++w) {
      EXPECT_EQ(jp.worker_hosts[static_cast<size_t>(w)],
                net::HostId{(group + 1 + w) % 8});
    }
  }
}

TEST(AssignTasksSharded, Validation) {
  EXPECT_THROW(assign_tasks(table1(1, 4), 8, 5, 0), std::invalid_argument);
  EXPECT_THROW(assign_tasks(table1(1, 4), 8, 5, 9), std::invalid_argument);
}

TEST(AssignTasks, FewerWorkersThanHosts) {
  auto jobs = assign_tasks(table1(1, 4), 8, 3);
  ASSERT_EQ(jobs.size(), 4u);
  for (const auto& jp : jobs) {
    EXPECT_EQ(jp.worker_hosts.size(), 3u);
    for (net::HostId h : jp.worker_hosts) EXPECT_NE(h, jp.ps_shard_host(0));
  }
}

}  // namespace
}  // namespace tls::cluster
