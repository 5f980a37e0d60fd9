// Controller behaviour for multi-PS jobs: every host carrying a shard is
// configured, each shard's port is steered, and departures clean all of it
// up.
#include <gtest/gtest.h>

#include "tensorlights/controller.hpp"

namespace tls::core {
namespace {

class MultiPsControllerTest : public ::testing::Test {
 protected:
  MultiPsControllerTest() : fabric_(sim_, make_fabric()), control_(fabric_) {}

  static net::FabricConfig make_fabric() {
    net::FabricConfig c;
    c.num_hosts = 6;
    return c;
  }

  dl::JobSpec sharded(std::int32_t id, std::uint16_t port, int num_ps) {
    dl::JobSpec spec;
    spec.job_id = id;
    spec.ps_port = port;
    spec.num_ps = num_ps;
    spec.model = dl::zoo::resnet32_cifar10();
    spec.num_workers = 3;
    return spec;
  }

  dl::JobPlacement shard_hosts(std::initializer_list<net::HostId> hosts) {
    dl::JobPlacement p;
    p.ps_hosts.assign(hosts);
    p.worker_hosts = {net::HostId{3}, net::HostId{4}, net::HostId{5}};
    return p;
  }

  net::BandId classify(net::HostId host, std::uint16_t sport) {
    net::FlowSpec f;
    f.src_port = sport;
    return fabric_.egress(host).classifier().classify(f);
  }

  sim::Simulator sim_{1};
  net::Fabric fabric_;
  tc::TrafficControl control_;
};

TEST_F(MultiPsControllerTest, AllShardHostsConfigured) {
  Controller ctl(sim_, control_, {});
  ctl.on_job_arrival(sharded(0, 5000, 3), shard_hosts({net::HostId{0}, net::HostId{1}, net::HostId{2}}));
  EXPECT_TRUE(ctl.host_configured(tls::net::HostId{0}));
  EXPECT_TRUE(ctl.host_configured(tls::net::HostId{1}));
  EXPECT_TRUE(ctl.host_configured(tls::net::HostId{2}));
  EXPECT_FALSE(ctl.host_configured(tls::net::HostId{3}));
  // Each shard's port is steered on its own host into the top class.
  EXPECT_EQ(classify(tls::net::HostId{0}, 5000), tls::net::BandId{1});
  EXPECT_EQ(classify(tls::net::HostId{1}, 5001), tls::net::BandId{1});
  EXPECT_EQ(classify(tls::net::HostId{2}, 5002), tls::net::BandId{1});
  // A shard's port does not leak onto other hosts.
  EXPECT_EQ(classify(tls::net::HostId{0}, 5001), tls::net::BandId{0});
}

TEST_F(MultiPsControllerTest, ShardsOfTwoJobsContendPerHost) {
  Controller ctl(sim_, control_, {});
  ctl.on_job_arrival(sharded(0, 5000, 2), shard_hosts({net::HostId{0}, net::HostId{1}}));
  ctl.on_job_arrival(sharded(1, 5100, 2), shard_hosts({net::HostId{1}, net::HostId{2}}));
  // Host 1 carries shards of both jobs: job 0 arrived first, so its shard
  // (port 5001) is in the higher class there.
  EXPECT_EQ(classify(tls::net::HostId{1}, 5001), tls::net::BandId{1});
  EXPECT_EQ(classify(tls::net::HostId{1}, 5100), tls::net::BandId{2});
  // Hosts 0 and 2 see a single job each: top class.
  EXPECT_EQ(classify(tls::net::HostId{0}, 5000), tls::net::BandId{1});
  EXPECT_EQ(classify(tls::net::HostId{2}, 5101), tls::net::BandId{1});
}

TEST_F(MultiPsControllerTest, DepartureRemovesEveryShardFilter) {
  Controller ctl(sim_, control_, {});
  dl::JobSpec job0 = sharded(0, 5000, 2);
  dl::JobPlacement place0 = shard_hosts({net::HostId{0}, net::HostId{1}});
  ctl.on_job_arrival(job0, place0);
  ctl.on_job_arrival(sharded(1, 5100, 1), shard_hosts({net::HostId{1}}));
  ctl.on_job_departure(job0, place0);
  EXPECT_EQ(classify(tls::net::HostId{0}, 5000), tls::net::BandId{0});  // no filter left on host 0
  EXPECT_EQ(classify(tls::net::HostId{1}, 5001), tls::net::BandId{0});
  // Job 1 promoted to the top class on host 1.
  EXPECT_EQ(classify(tls::net::HostId{1}, 5100), tls::net::BandId{1});
  EXPECT_EQ(ctl.band_of(0), -1);
  EXPECT_EQ(ctl.band_of(1), 0);
}

TEST_F(MultiPsControllerTest, RotationRotatesShardedHosts) {
  ControllerConfig cfg;
  cfg.policy = PolicyKind::kTlsRR;
  cfg.rotation_interval = sim::kSecond;
  Controller ctl(sim_, control_, cfg);
  ctl.on_job_arrival(sharded(0, 5000, 2), shard_hosts({net::HostId{0}, net::HostId{1}}));
  ctl.on_job_arrival(sharded(1, 5100, 2), shard_hosts({net::HostId{1}, net::HostId{0}}));
  EXPECT_EQ(classify(tls::net::HostId{0}, 5000), tls::net::BandId{1});
  EXPECT_EQ(classify(tls::net::HostId{0}, 5101), tls::net::BandId{2});
  sim_.run(sim::kSecond);
  EXPECT_EQ(classify(tls::net::HostId{0}, 5000), tls::net::BandId{2});  // swapped on host 0
  EXPECT_EQ(classify(tls::net::HostId{0}, 5101), tls::net::BandId{1});
  EXPECT_EQ(classify(tls::net::HostId{1}, 5001), tls::net::BandId{2});  // and on host 1
  EXPECT_EQ(classify(tls::net::HostId{1}, 5100), tls::net::BandId{1});
}

}  // namespace
}  // namespace tls::core
