#include "tensorlights/controller.hpp"

#include <gtest/gtest.h>

#include "net/htb_qdisc.hpp"

namespace tls::core {
namespace {

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : fabric_(sim_, make_fabric()), control_(fabric_) {}

  static net::FabricConfig make_fabric() {
    net::FabricConfig c;
    c.num_hosts = 4;
    return c;
  }

  dl::JobSpec job(std::int32_t id, std::uint16_t port,
                  dl::ModelSpec model = dl::zoo::resnet32_cifar10()) {
    dl::JobSpec spec;
    spec.job_id = id;
    spec.ps_port = port;
    spec.model = std::move(model);
    spec.num_workers = 3;
    return spec;
  }

  dl::JobPlacement on_host(net::HostId h) {
    dl::JobPlacement p;
    p.ps_hosts = {h};
    p.worker_hosts = {tls::net::HostId{(h.idx() + 1) % 4}, tls::net::HostId{(h.idx() + 2) % 4},
                      tls::net::HostId{(h.idx() + 3) % 4}};
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

TEST_F(ControllerTest, FifoPolicyTouchesNothing) {
  ControllerConfig cfg;
  cfg.policy = PolicyKind::kFifo;
  Controller ctl(sim_, control_, cfg);
  ctl.on_job_arrival(job(0, 5000), on_host(tls::net::HostId{0}));
  ctl.on_job_arrival(job(1, 5100), on_host(tls::net::HostId{0}));
  EXPECT_EQ(control_.history().size(), 0u);
  EXPECT_FALSE(ctl.host_configured(tls::net::HostId{0}));
  EXPECT_EQ(ctl.band_of(0), -1);
}

TEST_F(ControllerTest, FirstArrivalInstallsHtbRoot) {
  Controller ctl(sim_, control_, {});
  ctl.on_job_arrival(job(0, 5000), on_host(tls::net::HostId{0}));
  EXPECT_TRUE(ctl.host_configured(tls::net::HostId{0}));
  EXPECT_EQ(control_.root_kind(tls::net::HostId{0}), tc::QdiscKind::kHtb);
  auto& htb = static_cast<net::HtbQdisc&>(fabric_.egress(tls::net::HostId{0}).qdisc());
  // 6 bands + default class.
  EXPECT_EQ(htb.class_count(), 7u);
  EXPECT_TRUE(htb.has_class(0x3F));
}

TEST_F(ControllerTest, OnlyPsHostsConfigured) {
  Controller ctl(sim_, control_, {});
  ctl.on_job_arrival(job(0, 5000), on_host(tls::net::HostId{0}));
  EXPECT_FALSE(ctl.host_configured(tls::net::HostId{1}));
  EXPECT_EQ(control_.reconfig_count(tls::net::HostId{1}), 0u);
  EXPECT_EQ(control_.reconfig_count(tls::net::HostId{2}), 0u);
}

TEST_F(ControllerTest, ArrivalOrderRanks) {
  Controller ctl(sim_, control_, {});
  ctl.on_job_arrival(job(0, 5000), on_host(tls::net::HostId{0}));
  ctl.on_job_arrival(job(1, 5100), on_host(tls::net::HostId{0}));
  ctl.on_job_arrival(job(2, 5200), on_host(tls::net::HostId{0}));
  EXPECT_EQ(ctl.rank_of(0), 0);
  EXPECT_EQ(ctl.rank_of(1), 1);
  EXPECT_EQ(ctl.rank_of(2), 2);
  EXPECT_EQ(ctl.band_of(0), 0);
  EXPECT_EQ(ctl.band_of(1), 1);
  EXPECT_EQ(ctl.band_of(2), 2);
  // Filters steer the PS ports into the right htb class minors (band+1).
  EXPECT_EQ(classify(tls::net::HostId{0}, 5000), tls::net::BandId{1});
  EXPECT_EQ(classify(tls::net::HostId{0}, 5100), tls::net::BandId{2});
  EXPECT_EQ(classify(tls::net::HostId{0}, 5200), tls::net::BandId{3});
}

TEST_F(ControllerTest, DepartureReranksRemaining) {
  Controller ctl(sim_, control_, {});
  ctl.on_job_arrival(job(0, 5000), on_host(tls::net::HostId{0}));
  ctl.on_job_arrival(job(1, 5100), on_host(tls::net::HostId{0}));
  ctl.on_job_arrival(job(2, 5200), on_host(tls::net::HostId{0}));
  ctl.on_job_departure(job(0, 5000), on_host(tls::net::HostId{0}));
  EXPECT_EQ(ctl.band_of(0), -1);
  EXPECT_EQ(ctl.band_of(1), 0);  // promoted
  EXPECT_EQ(ctl.band_of(2), 1);
  // The departed port no longer matches any filter: the classifier falls
  // back to band 0, which has no htb class, so htb routes it to the
  // default class (1:3f) internally.
  EXPECT_EQ(classify(tls::net::HostId{0}, 5000), tls::net::BandId{0});
  EXPECT_EQ(classify(tls::net::HostId{0}, 5100), tls::net::BandId{1});
}

TEST_F(ControllerTest, SmallestModelFirstStrategy) {
  ControllerConfig cfg;
  cfg.strategy = AssignStrategy::kSmallestModelFirst;
  Controller ctl(sim_, control_, cfg);
  ctl.on_job_arrival(job(0, 5000, dl::zoo::vgg16()), on_host(tls::net::HostId{0}));
  ctl.on_job_arrival(job(1, 5100, dl::zoo::resnet32_cifar10()), on_host(tls::net::HostId{0}));
  ctl.on_job_arrival(job(2, 5200, dl::zoo::resnet50_imagenet()), on_host(tls::net::HostId{0}));
  EXPECT_EQ(ctl.rank_of(1), 0);  // smallest update first
  EXPECT_EQ(ctl.rank_of(2), 1);
  EXPECT_EQ(ctl.rank_of(0), 2);  // vgg16 biggest, lowest priority
}

TEST_F(ControllerTest, RandomStrategyIsAPermutation) {
  ControllerConfig cfg;
  cfg.strategy = AssignStrategy::kRandom;
  Controller ctl(sim_, control_, cfg);
  for (int j = 0; j < 5; ++j) {
    ctl.on_job_arrival(job(j, static_cast<std::uint16_t>(5000 + 100 * j)),
                       on_host(tls::net::HostId{0}));
  }
  std::set<int> ranks;
  for (int j = 0; j < 5; ++j) ranks.insert(ctl.rank_of(j));
  EXPECT_EQ(ranks.size(), 5u);
  EXPECT_EQ(*ranks.begin(), 0);
  EXPECT_EQ(*ranks.rbegin(), 4);
}

TEST_F(ControllerTest, BandSharingBeyondMaxBands) {
  ControllerConfig cfg;
  cfg.max_bands = 2;
  Controller ctl(sim_, control_, cfg);
  for (int j = 0; j < 5; ++j) {
    ctl.on_job_arrival(job(j, static_cast<std::uint16_t>(5000 + 100 * j)),
                       on_host(tls::net::HostId{0}));
  }
  std::map<int, int> band_counts;
  for (int j = 0; j < 5; ++j) ++band_counts[ctl.band_of(j)];
  EXPECT_EQ(band_counts.size(), 2u);  // only 2 bands in use
}

TEST_F(ControllerTest, TlsRRRotatesEveryInterval) {
  ControllerConfig cfg;
  cfg.policy = PolicyKind::kTlsRR;
  cfg.rotation_interval = sim::kSecond;
  Controller ctl(sim_, control_, cfg);
  ctl.on_job_arrival(job(0, 5000), on_host(tls::net::HostId{0}));
  ctl.on_job_arrival(job(1, 5100), on_host(tls::net::HostId{0}));
  EXPECT_EQ(ctl.band_of(0), 0);
  sim_.run(sim::kSecond);
  EXPECT_EQ(ctl.rotations(), 1u);
  EXPECT_EQ(ctl.band_of(0), 1);  // rotated
  EXPECT_EQ(ctl.band_of(1), 0);
  EXPECT_EQ(classify(tls::net::HostId{0}, 5000), tls::net::BandId{2});
  EXPECT_EQ(classify(tls::net::HostId{0}, 5100), tls::net::BandId{1});
  sim_.run(2 * sim::kSecond);
  EXPECT_EQ(ctl.rotations(), 2u);
  EXPECT_EQ(ctl.band_of(0), 0);  // back
}

TEST_F(ControllerTest, TlsOneNeverRotates) {
  Controller ctl(sim_, control_, {});
  ctl.on_job_arrival(job(0, 5000), on_host(tls::net::HostId{0}));
  ctl.on_job_arrival(job(1, 5100), on_host(tls::net::HostId{0}));
  sim_.run(100 * sim::kSecond);
  EXPECT_EQ(ctl.rotations(), 0u);
  EXPECT_EQ(ctl.band_of(0), 0);
}

TEST_F(ControllerTest, RotationSkipsUncontendedHosts) {
  ControllerConfig cfg;
  cfg.policy = PolicyKind::kTlsRR;
  cfg.rotation_interval = sim::kSecond;
  Controller ctl(sim_, control_, cfg);
  ctl.on_job_arrival(job(0, 5000), on_host(tls::net::HostId{0}));  // single PS on host0
  std::uint64_t before = control_.reconfig_count(tls::net::HostId{0});
  sim_.run(5 * sim::kSecond);
  // No contention on host0 -> rotation leaves it alone.
  EXPECT_EQ(control_.reconfig_count(tls::net::HostId{0}), before);
}

TEST_F(ControllerTest, PrioDataPlane) {
  ControllerConfig cfg;
  cfg.data_plane = DataPlane::kPrio;
  Controller ctl(sim_, control_, cfg);
  ctl.on_job_arrival(job(0, 5000), on_host(tls::net::HostId{2}));
  EXPECT_EQ(control_.root_kind(tls::net::HostId{2}), tc::QdiscKind::kPrio);
  EXPECT_EQ(classify(tls::net::HostId{2}, 5000), tls::net::BandId{0});      // top band
  EXPECT_EQ(classify(tls::net::HostId{2}, 9999), tls::net::BandId{6});      // catch-all -> default band
}

TEST_F(ControllerTest, MultiHostIndependence) {
  Controller ctl(sim_, control_, {});
  ctl.on_job_arrival(job(0, 5000), on_host(tls::net::HostId{0}));
  ctl.on_job_arrival(job(1, 5100), on_host(tls::net::HostId{1}));
  // Each host has a single PS: both are top priority locally.
  EXPECT_EQ(ctl.band_of(0), 0);
  EXPECT_EQ(ctl.band_of(1), 0);
  EXPECT_TRUE(ctl.host_configured(tls::net::HostId{0}));
  EXPECT_TRUE(ctl.host_configured(tls::net::HostId{1}));
}

TEST_F(ControllerTest, ConfigValidation) {
  ControllerConfig cfg;
  cfg.max_bands = 0;
  EXPECT_THROW(Controller(sim_, control_, cfg), std::invalid_argument);
  cfg = {};
  cfg.max_bands = 9;  // htb prio limit is 8
  EXPECT_THROW(Controller(sim_, control_, cfg), std::invalid_argument);
  cfg = {};
  cfg.data_plane = DataPlane::kPrio;
  cfg.max_bands = 15;
  EXPECT_NO_THROW(Controller(sim_, control_, cfg));
  cfg.max_bands = 16;
  EXPECT_THROW(Controller(sim_, control_, cfg), std::invalid_argument);
  cfg = {};
  cfg.policy = PolicyKind::kTlsRR;
  cfg.rotation_interval = tls::sim::Time{0};
  EXPECT_THROW(Controller(sim_, control_, cfg), std::invalid_argument);
}

TEST_F(ControllerTest, UnknownDepartureIgnored) {
  Controller ctl(sim_, control_, {});
  EXPECT_NO_THROW(ctl.on_job_departure(job(9, 9000), on_host(tls::net::HostId{0})));
}

}  // namespace
}  // namespace tls::core
