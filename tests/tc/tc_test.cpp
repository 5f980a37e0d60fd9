#include "tc/tc.hpp"

#include <gtest/gtest.h>

#include <string>

#include "net/htb_qdisc.hpp"
#include "net/pfifo_qdisc.hpp"
#include "net/prio_qdisc.hpp"

namespace tls::tc {
namespace {

class TcTest : public ::testing::Test {
 protected:
  TcTest() : fabric_(sim_, make_config()), control_(fabric_) {}

  static net::FabricConfig make_config() {
    net::FabricConfig c;
    c.num_hosts = 3;
    return c;
  }

  sim::Simulator sim_{1};
  net::Fabric fabric_;
  TrafficControl control_;
};

TEST_F(TcTest, DeviceNameResolution) {
  EXPECT_EQ(control_.resolve_device("host0"), tls::net::HostId{0});
  EXPECT_EQ(control_.resolve_device("host2"), tls::net::HostId{2});
  EXPECT_EQ(control_.resolve_device("h1"), tls::net::HostId{1});
  EXPECT_EQ(control_.resolve_device("1"), tls::net::HostId{1});
  EXPECT_EQ(control_.resolve_device("host3"), tls::net::HostId{-1});  // out of range
  EXPECT_EQ(control_.resolve_device("eth0"), tls::net::HostId{-1});
  EXPECT_EQ(control_.resolve_device(""), tls::net::HostId{-1});
  EXPECT_EQ(device_name(tls::net::HostId{7}), "host7");
}

TEST_F(TcTest, DefaultRootIsPfifo) {
  EXPECT_EQ(control_.root_kind(tls::net::HostId{0}), QdiscKind::kPfifo);
  EXPECT_NE(dynamic_cast<const net::PfifoQdisc*>(
                &fabric_.egress(tls::net::HostId{0}).qdisc()),
            nullptr);
}

TEST_F(TcTest, InstallPrioRoot) {
  Status s = control_.exec("tc qdisc add dev host0 root handle 1: prio bands 6");
  ASSERT_TRUE(s.ok) << s.error;
  EXPECT_EQ(control_.root_kind(tls::net::HostId{0}), QdiscKind::kPrio);
  auto& q = static_cast<net::PrioQdisc&>(fabric_.egress(tls::net::HostId{0}).qdisc());
  EXPECT_EQ(q.bands(), 6);
}

TEST_F(TcTest, AddOverExistingRootFailsWithoutReplace) {
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: prio").ok);
  Status s = control_.exec("tc qdisc add dev host0 root handle 1: htb");
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.error.find("replace"), std::string::npos);
  EXPECT_TRUE(control_.exec("tc qdisc replace dev host0 root handle 1: htb").ok);
  EXPECT_EQ(control_.root_kind(tls::net::HostId{0}), QdiscKind::kHtb);
}

TEST_F(TcTest, QdiscDelRestoresDefault) {
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: htb").ok);
  ASSERT_TRUE(control_.exec("tc qdisc del dev host0 root").ok);
  EXPECT_EQ(control_.root_kind(tls::net::HostId{0}), QdiscKind::kPfifo);
  EXPECT_FALSE(control_.exec("tc qdisc del dev host0 root").ok);
}

TEST_F(TcTest, HtbClassLifecycle) {
  ASSERT_TRUE(control_.exec("tc qdisc add dev host1 root handle 1: htb default 3f").ok);
  Status s = control_.exec(
      "tc class add dev host1 parent 1: classid 1:1 htb rate 1mbit "
      "ceil 10gbit prio 0");
  ASSERT_TRUE(s.ok) << s.error;
  auto& htb = static_cast<net::HtbQdisc&>(fabric_.egress(tls::net::HostId{1}).qdisc());
  EXPECT_TRUE(htb.has_class(1));
  // change
  ASSERT_TRUE(control_
                  .exec("tc class change dev host1 parent 1: classid 1:1 htb "
                        "rate 2mbit ceil 10gbit prio 5")
                  .ok);
  EXPECT_EQ(htb.class_config(1)->prio, 5);
  // delete
  ASSERT_TRUE(control_.exec("tc class del dev host1 classid 1:1").ok);
  EXPECT_FALSE(htb.has_class(1));
}

TEST_F(TcTest, HtbClassQuantumMustEarnATopUpAtTheMinimumWeight) {
  // WDRR tops a flow's deficit up by quantum * weight, rounded down; with
  // a 1-byte quantum that is 0 for any flow lighter than 1, and dequeue
  // spins forever. No flow is started: it would never finish.
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: htb").ok);
  const std::string add =
      "tc class add dev host0 parent 1: classid 1:1 htb rate 10gbit quantum ";
  EXPECT_FALSE(control_.exec(add + "1").ok);
  EXPECT_FALSE(control_.exec(add + "19").ok);  // 19 * 0.05 < 1
  ASSERT_TRUE(control_.exec(add + "20").ok);
  EXPECT_FALSE(control_
                   .exec("tc class change dev host0 parent 1: classid 1:1 "
                         "htb rate 10gbit quantum 1")
                   .ok);
}

TEST_F(TcTest, ClassRequiresHtbRoot) {
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: prio").ok);
  Status s = control_.exec(
      "tc class add dev host0 parent 1: classid 1:1 htb rate 1mbit");
  EXPECT_FALSE(s.ok);
}

TEST_F(TcTest, ClassParentMustMatchRootHandle) {
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: htb").ok);
  EXPECT_FALSE(control_
                   .exec("tc class add dev host0 parent 2: classid 2:1 htb "
                         "rate 1mbit")
                   .ok);
  EXPECT_FALSE(control_
                   .exec("tc class add dev host0 parent 1: classid 2:1 htb "
                         "rate 1mbit")
                   .ok);
}

TEST_F(TcTest, CeilDefaultsToRate) {
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: htb").ok);
  ASSERT_TRUE(control_
                  .exec("tc class add dev host0 parent 1: classid 1:1 htb "
                        "rate 4mbit")
                  .ok);
  auto& htb = static_cast<net::HtbQdisc&>(fabric_.egress(tls::net::HostId{0}).qdisc());
  EXPECT_DOUBLE_EQ(net::to_double(htb.class_config(1)->ceil),
                   net::to_double(htb.class_config(1)->rate));
}

TEST_F(TcTest, FilterMapsPrioFlowidToZeroBasedBand) {
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: prio bands 6").ok);
  ASSERT_TRUE(control_
                  .exec("tc filter add dev host0 parent 1: pref 10 u32 match "
                        "ip sport 5000 0xffff flowid 1:3")
                  .ok);
  net::FlowSpec f;
  f.src_port = 5000;
  EXPECT_EQ(fabric_.egress(tls::net::HostId{0}).classifier().classify(f), tls::net::BandId{2});  // 1:3 -> band 2
}

TEST_F(TcTest, FilterMapsHtbFlowidToMinor) {
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: htb").ok);
  ASSERT_TRUE(control_
                  .exec("tc filter add dev host0 parent 1: pref 10 u32 match "
                        "ip sport 5000 0xffff flowid 1:3")
                  .ok);
  net::FlowSpec f;
  f.src_port = 5000;
  EXPECT_EQ(fabric_.egress(tls::net::HostId{0}).classifier().classify(f), tls::net::BandId{3});
}

TEST_F(TcTest, FilterParentMustMatch) {
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: htb").ok);
  EXPECT_FALSE(control_
                   .exec("tc filter add dev host0 parent 2: pref 10 u32 "
                         "flowid 2:1")
                   .ok);
}

TEST_F(TcTest, FilterFlowidMustBeAClassOfTheRoot) {
  // Under root 1:, flowid 19:3 names a class of another qdisc; it must not
  // steer the port into band 3 (htb) or band 2 (prio).
  for (const char* root : {"prio bands 6", "htb"}) {
    ASSERT_TRUE(control_
                    .exec(std::string("tc qdisc replace dev host0 root "
                                      "handle 1: ") +
                          root)
                    .ok);
    Status s = control_.exec(
        "tc filter add dev host0 parent 1: pref 10 u32 match ip sport 5000 "
        "0xffff flowid 19:3");
    EXPECT_FALSE(s.ok) << root;
    EXPECT_NE(s.error.find("flowid"), std::string::npos) << s.error;
    EXPECT_EQ(fabric_.egress(tls::net::HostId{0}).classifier().size(), 0u)
        << root;
  }
}

TEST_F(TcTest, FilterDelRemovesRule) {
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: htb").ok);
  ASSERT_TRUE(control_
                  .exec("tc filter add dev host0 parent 1: pref 10 u32 match "
                        "ip sport 5000 0xffff flowid 1:3")
                  .ok);
  ASSERT_TRUE(control_.exec("tc filter del dev host0 pref 10").ok);
  EXPECT_FALSE(control_.exec("tc filter del dev host0 pref 10").ok);
  net::FlowSpec f;
  f.src_port = 5000;
  EXPECT_EQ(fabric_.egress(tls::net::HostId{0}).classifier().classify(f), tls::net::BandId{0});
}

TEST_F(TcTest, QdiscReplaceClearsFilters) {
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: htb").ok);
  ASSERT_TRUE(control_
                  .exec("tc filter add dev host0 parent 1: pref 10 u32 match "
                        "ip sport 5000 0xffff flowid 1:3")
                  .ok);
  ASSERT_TRUE(control_.exec("tc qdisc replace dev host0 root handle 1: prio").ok);
  EXPECT_EQ(fabric_.egress(tls::net::HostId{0}).classifier().size(), 0u);
}

TEST_F(TcTest, HistoryRecordsOnlySuccesses) {
  control_.exec("tc qdisc add dev host0 root handle 1: htb");
  control_.exec("bogus command");
  control_.exec("tc qdisc add dev host9 root handle 1: htb");
  EXPECT_EQ(control_.history().size(), 1u);
}

TEST_F(TcTest, ReconfigCountsPerHost) {
  control_.exec("tc qdisc add dev host0 root handle 1: htb");
  control_.exec(
      "tc class add dev host0 parent 1: classid 1:1 htb rate 1mbit");
  EXPECT_EQ(control_.reconfig_count(tls::net::HostId{0}), 2u);
  EXPECT_EQ(control_.reconfig_count(tls::net::HostId{1}), 0u);  // untouched hosts stay at zero
}

TEST_F(TcTest, ParseErrorSurfaced) {
  Status s = control_.exec("tc qdisc add dev host0 root handle 1: wfq");
  EXPECT_FALSE(s.ok);
  EXPECT_NE(s.error.find("parse error"), std::string::npos);
}

TEST_F(TcTest, LinkRateExposed) {
  EXPECT_DOUBLE_EQ(net::to_double(control_.link_rate(tls::net::HostId{0})),
                   net::to_double(net::gbps(10)));
}

}  // namespace
}  // namespace tls::tc
