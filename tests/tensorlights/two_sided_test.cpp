// Two-sided (gradient-prioritizing) controller mode.
#include <gtest/gtest.h>

#include "tensorlights/controller.hpp"

namespace tls::core {
namespace {

class TwoSidedTest : public ::testing::Test {
 protected:
  TwoSidedTest() : fabric_(sim_, make_fabric()), control_(fabric_) {}
  static net::FabricConfig make_fabric() {
    net::FabricConfig c;
    c.num_hosts = 5;
    return c;
  }
  dl::JobSpec job(std::int32_t id, std::uint16_t port) {
    dl::JobSpec spec;
    spec.job_id = id;
    spec.ps_port = port;
    spec.model = dl::zoo::resnet32_cifar10();
    spec.num_workers = 3;
    return spec;
  }
  dl::JobPlacement place() {
    dl::JobPlacement p;
    p.ps_hosts = {tls::net::HostId{0}};
    p.worker_hosts = {tls::net::HostId{1}, tls::net::HostId{2}, tls::net::HostId{3}};
    return p;
  }
  net::BandId classify_gradient(net::HostId host, std::uint16_t dport) {
    net::FlowSpec f;
    f.dst_port = dport;
    return fabric_.egress(host).classifier().classify(f);
  }
  ControllerConfig two_sided() {
    ControllerConfig cfg;
    cfg.prioritize_gradients = true;
    return cfg;
  }

  sim::Simulator sim_{1};
  net::Fabric fabric_;
  tc::TrafficControl control_;
};

TEST_F(TwoSidedTest, WorkerHostsGetGradientFilters) {
  Controller ctl(sim_, control_, two_sided());
  ctl.on_job_arrival(job(0, 5000), place());
  for (net::HostId h : {net::HostId{1}, net::HostId{2}, net::HostId{3}}) {
    EXPECT_TRUE(ctl.host_configured(h)) << h;
    EXPECT_EQ(classify_gradient(h, 5000), tls::net::BandId{1}) << h;  // top class
  }
  EXPECT_FALSE(ctl.host_configured(tls::net::HostId{4}));  // uninvolved host untouched
}

TEST_F(TwoSidedTest, GradientBandFollowsJobRank) {
  Controller ctl(sim_, control_, two_sided());
  ctl.on_job_arrival(job(0, 5000), place());
  ctl.on_job_arrival(job(1, 5100), place());
  EXPECT_EQ(classify_gradient(tls::net::HostId{1}, 5000), tls::net::BandId{1});  // job 0: rank 0
  EXPECT_EQ(classify_gradient(tls::net::HostId{1}, 5100), tls::net::BandId{2});  // job 1: rank 1
}

TEST_F(TwoSidedTest, DepartureCleansWorkerFilters) {
  Controller ctl(sim_, control_, two_sided());
  dl::JobSpec j0 = job(0, 5000);
  ctl.on_job_arrival(j0, place());
  ctl.on_job_arrival(job(1, 5100), place());
  ctl.on_job_departure(j0, place());
  EXPECT_EQ(classify_gradient(tls::net::HostId{1}, 5000), tls::net::BandId{0});  // filter removed
  EXPECT_EQ(classify_gradient(tls::net::HostId{1}, 5100), tls::net::BandId{1});  // survivor promoted
}

TEST_F(TwoSidedTest, RotationUpdatesGradientFilters) {
  ControllerConfig cfg = two_sided();
  cfg.policy = PolicyKind::kTlsRR;
  cfg.rotation_interval = sim::kSecond;
  Controller ctl(sim_, control_, cfg);
  ctl.on_job_arrival(job(0, 5000), place());
  ctl.on_job_arrival(job(1, 5100), place());
  sim_.run(sim::kSecond);
  EXPECT_EQ(classify_gradient(tls::net::HostId{1}, 5000), tls::net::BandId{2});  // rotated down
  EXPECT_EQ(classify_gradient(tls::net::HostId{1}, 5100), tls::net::BandId{1});
}

TEST_F(TwoSidedTest, OneSidedModeLeavesWorkersUntouched) {
  Controller ctl(sim_, control_, {});
  ctl.on_job_arrival(job(0, 5000), place());
  for (net::HostId h : {net::HostId{1}, net::HostId{2}, net::HostId{3}}) {
    EXPECT_FALSE(ctl.host_configured(h)) << h;
  }
}

}  // namespace
}  // namespace tls::core
