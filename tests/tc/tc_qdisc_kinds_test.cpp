// Parser + applier coverage of the root disciplines beyond the basics:
// filters on the classless pfifo, the applier's name for each root, and
// shaping through an htb class end to end.
#include <gtest/gtest.h>

#include "net/pfifo_qdisc.hpp"
#include "tc/tc.hpp"

namespace tls::tc {
namespace {

class TcQdiscKindsTest : public ::testing::Test {
 protected:
  TcQdiscKindsTest() : fabric_(sim_, make_config()), control_(fabric_) {}
  static net::FabricConfig make_config() {
    net::FabricConfig c;
    c.num_hosts = 2;
    return c;
  }
  const char* root_name() const {
    return to_string(control_.root_kind(net::HostId{0}));
  }
  sim::Simulator sim_{1};
  net::Fabric fabric_;
  TrafficControl control_;
};

TEST_F(TcQdiscKindsTest, FiltersOnClasslessQdiscsAreNoOps) {
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: pfifo").ok);
  ASSERT_TRUE(control_
                  .exec("tc filter add dev host0 parent 1: pref 10 u32 match "
                        "ip sport 5000 0xffff flowid 1:3")
                  .ok);
  net::FlowSpec f;
  f.src_port = 5000;
  EXPECT_EQ(fabric_.egress(net::HostId{0}).classifier().classify(f),
            net::BandId{0});
}

TEST_F(TcQdiscKindsTest, ShowQdiscNamesDiscipline) {
  EXPECT_STREQ(root_name(), "pfifo");
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: htb").ok);
  EXPECT_STREQ(root_name(), "htb");
  ASSERT_TRUE(
      control_.exec("tc qdisc replace dev host0 root handle 1: prio").ok);
  EXPECT_STREQ(root_name(), "prio");
  ASSERT_TRUE(control_.exec("tc qdisc del dev host0 root").ok);
  EXPECT_STREQ(root_name(), "pfifo");
}

TEST_F(TcQdiscKindsTest, OnlyPfifoPrioAndHtbInstall) {
  for (const char* kind : {"pfifo_fast", "tbf rate 100mbit", "sfq"}) {
    Status s = control_.exec(
        std::string("tc qdisc add dev host0 root handle 1: ") + kind);
    EXPECT_FALSE(s.ok) << kind;
    EXPECT_NE(s.error.find("unknown qdisc kind"), std::string::npos)
        << s.error;
  }
  EXPECT_STREQ(root_name(), "pfifo");
  EXPECT_NE(dynamic_cast<const net::PfifoQdisc*>(
                &fabric_.egress(net::HostId{0}).qdisc()),
            nullptr);
  EXPECT_EQ(control_.reconfig_count(net::HostId{0}), 0u);
}

TEST_F(TcQdiscKindsTest, TbfShapesEndToEnd) {
  // An htb class whose ceil equals its rate never borrows, so it shapes
  // like a token bucket filter: 8 MiB (10.9 MB on the wire) through one
  // capped at 100 mbit takes ~0.85 s instead of ~9 ms. Once its 256 KiB
  // bucket is spent each chunk waits for tokens, and the port re-polls
  // the qdisc at every retry time.
  ASSERT_TRUE(control_.exec("tc qdisc add dev host0 root handle 1: htb").ok);
  ASSERT_TRUE(control_
                  .exec("tc class add dev host0 parent 1: classid 1:1 htb "
                        "rate 100mbit ceil 100mbit burst 256k cburst 256k")
                  .ok);
  ASSERT_TRUE(control_
                  .exec("tc filter add dev host0 parent 1: pref 10 u32 match "
                        "ip sport 5000 0xffff flowid 1:1")
                  .ok);
  net::FlowSpec f;
  f.src = net::HostId{0};
  f.dst = net::HostId{1};
  f.src_port = 5000;
  f.bytes = 8 * net::kMiB;
  sim::Time done{0};
  fabric_.start_flow(f, [&](const net::FlowRecord& r) { done = r.end; });
  sim_.run();
  EXPECT_GT(sim::to_seconds(done), 0.8);
  EXPECT_LT(sim::to_seconds(done), 0.9);
}

}  // namespace
}  // namespace tls::tc
