#include "tc/parser.hpp"

#include <gtest/gtest.h>

namespace tls::tc {
namespace {

template <typename T>
T expect_cmd(const std::string& line) {
  ParseResult r = parse_command(line);
  EXPECT_TRUE(r.ok) << line << " -> " << r.error;
  EXPECT_TRUE(std::holds_alternative<T>(r.command)) << line;
  return std::get<T>(r.command);
}

void expect_error(const std::string& line) {
  ParseResult r = parse_command(line);
  EXPECT_FALSE(r.ok) << line << " unexpectedly parsed";
  EXPECT_FALSE(r.error.empty());
}

TEST(Parser, QdiscAddPfifo) {
  auto cmd = expect_cmd<QdiscAddCmd>(
      "tc qdisc add dev host0 root handle 1: pfifo");
  EXPECT_EQ(cmd.dev, "host0");
  EXPECT_EQ(cmd.spec.kind, QdiscKind::kPfifo);
  EXPECT_EQ(cmd.spec.handle, (Handle{1, 0}));
  EXPECT_FALSE(cmd.replace);
}

TEST(Parser, QdiscAddPfifoWithLimit) {
  auto cmd = expect_cmd<QdiscAddCmd>(
      "tc qdisc add dev host0 root handle 1: pfifo limit 1000");
  EXPECT_EQ(cmd.spec.kind, QdiscKind::kPfifo);
}

TEST(Parser, QdiscAddPrioBands) {
  auto cmd = expect_cmd<QdiscAddCmd>(
      "tc qdisc add dev host3 root handle 1: prio bands 7");
  EXPECT_EQ(cmd.spec.kind, QdiscKind::kPrio);
  EXPECT_EQ(cmd.spec.prio_bands, 7);
}

TEST(Parser, QdiscPrioDefaultBands) {
  auto cmd = expect_cmd<QdiscAddCmd>(
      "tc qdisc add dev host3 root handle 1: prio");
  EXPECT_EQ(cmd.spec.prio_bands, 3);  // Linux default
}

TEST(Parser, QdiscAddHtbWithDefault) {
  auto cmd = expect_cmd<QdiscAddCmd>(
      "tc qdisc add dev host0 root handle 1: htb default 3f");
  EXPECT_EQ(cmd.spec.kind, QdiscKind::kHtb);
  EXPECT_EQ(cmd.spec.htb_default, 0x3Fu);  // hex, as tc parses it
}

TEST(Parser, QdiscReplace) {
  auto cmd = expect_cmd<QdiscAddCmd>(
      "tc qdisc replace dev host0 root handle 1: htb");
  EXPECT_TRUE(cmd.replace);
}

TEST(Parser, QdiscDel) {
  auto cmd = expect_cmd<QdiscDelCmd>("tc qdisc del dev host2 root");
  EXPECT_EQ(cmd.dev, "host2");
}

TEST(Parser, LeadingTcOptional) {
  EXPECT_TRUE(parse_command("qdisc add dev host0 root handle 1: pfifo").ok);
}

TEST(Parser, QdiscErrors) {
  expect_error("tc qdisc add dev host0 root handle 1: tbf");
  expect_error("tc qdisc add root handle 1: pfifo");             // no dev
  expect_error("tc qdisc add dev host0 handle 1: pfifo");        // no root
  expect_error("tc qdisc add dev host0 root handle 1:5 pfifo");  // minor set
  expect_error("tc qdisc add dev host0 root handle 0: pfifo");   // no root
  expect_error("tc qdisc add dev host0 root handle 1: prio bands 99");
  // 2^32 + 2 must not wrap to 2 bands.
  expect_error("tc qdisc add dev host0 root handle 1: prio bands 4294967298");
  expect_error("tc qdisc add dev host0 root handle 1: pfifo extra");
  expect_error("tc qdisc frobnicate dev host0 root");
  expect_error("tc qdisc del dev host0 root extra");
  expect_error("");
  expect_error("tc frobnicate");
}

TEST(Parser, ClassAddFull) {
  auto cmd = expect_cmd<ClassAddCmd>(
      "tc class add dev host0 parent 1: classid 1:a htb rate 1mbit "
      "ceil 10gbit burst 128k cburst 64k prio 3 quantum 256k");
  EXPECT_FALSE(cmd.change);
  EXPECT_EQ(cmd.spec.classid, (Handle{1, 10}));
  EXPECT_EQ(cmd.spec.parent, (Handle{1, 0}));
  EXPECT_DOUBLE_EQ(net::to_double(cmd.spec.rate), 1e6 / 8);
  ASSERT_TRUE(cmd.spec.ceil);
  EXPECT_DOUBLE_EQ(net::to_double(*cmd.spec.ceil), 10e9 / 8);
  EXPECT_EQ(cmd.spec.burst, tls::net::Bytes{128 * 1024});
  EXPECT_EQ(cmd.spec.cburst, tls::net::Bytes{64 * 1024});
  EXPECT_EQ(cmd.spec.prio, 3);
  EXPECT_EQ(cmd.spec.quantum, tls::net::Bytes{256 * 1024});
}

TEST(Parser, ClassChangeAndDefaults) {
  auto cmd = expect_cmd<ClassAddCmd>(
      "tc class change dev host0 parent 1: classid 1:1 htb rate 5mbit");
  EXPECT_TRUE(cmd.change);
  EXPECT_FALSE(cmd.spec.ceil);  // ceil defaults to rate at apply time
}

TEST(Parser, ClassDel) {
  auto cmd = expect_cmd<ClassDelCmd>("tc class del dev host0 classid 1:2");
  EXPECT_EQ(cmd.classid, (Handle{1, 2}));
}

TEST(Parser, ClassErrors) {
  expect_error("tc class add dev host0 parent 1: classid 1:1 htb");  // no rate
  expect_error("tc class add dev host0 parent 1: classid 1: htb rate 1mbit");
  expect_error("tc class add dev host0 classid 1:1 htb rate 1mbit");
  expect_error("tc class add dev host0 parent 1: classid 1:1 cbq rate 1mbit");
  expect_error("tc class add dev host0 parent 1: classid 1:1 htb rate fast");
  expect_error("tc class add dev host0 parent 1: classid 1:1 htb rate 1mbit prio 9");
  // 2^32 must not wrap to prio 0.
  expect_error(
      "tc class add dev host0 parent 1: classid 1:1 htb rate 1mbit "
      "prio 4294967296");
  // About 1e32 bytes: past net::Bytes, not a float-to-int overflow.
  expect_error(
      "tc class add dev host0 parent 1: classid 1:1 htb rate 1mbit "
      "burst 99999999999999999999999g");
  expect_error("tc class add dev host0 parent 1: classid 1:1 htb rate 1mbit bogus 3");
  expect_error("tc class del dev host0 classid 1:");
  expect_error("tc class del dev host0 classid 1:2 extra");
}

TEST(Parser, FilterAddSport) {
  auto cmd = expect_cmd<FilterAddCmd>(
      "tc filter add dev host0 protocol ip parent 1: pref 1007 u32 "
      "match ip sport 5064 0xffff flowid 1:3");
  EXPECT_EQ(cmd.parent, (Handle{1, 0}));
  EXPECT_EQ(cmd.spec.pref, 1007);
  ASSERT_TRUE(cmd.spec.sport);
  EXPECT_EQ(*cmd.spec.sport, 5064);
  EXPECT_FALSE(cmd.spec.dport);
  EXPECT_EQ(cmd.spec.flowid, (Handle{1, 3}));
}

TEST(Parser, FilterAddBothPorts) {
  auto cmd = expect_cmd<FilterAddCmd>(
      "tc filter add dev host0 parent 1: u32 match ip sport 10 0xffff "
      "match ip dport 20 0xffff flowid 1:1");
  EXPECT_EQ(*cmd.spec.sport, 10);
  EXPECT_EQ(*cmd.spec.dport, 20);
  EXPECT_EQ(cmd.spec.pref, 100);  // default
}

TEST(Parser, FilterCatchAll) {
  auto cmd = expect_cmd<FilterAddCmd>(
      "tc filter add dev host0 parent 1: pref 65000 u32 flowid 1:7");
  EXPECT_FALSE(cmd.spec.sport);
  EXPECT_FALSE(cmd.spec.dport);
  EXPECT_EQ(cmd.spec.flowid.minor, 7);
}

TEST(Parser, FilterDel) {
  auto cmd = expect_cmd<FilterDelCmd>("tc filter del dev host0 pref 1003");
  EXPECT_EQ(cmd.pref, 1003);
}

TEST(Parser, FilterErrors) {
  expect_error("tc filter add dev host0 parent 1: u32");  // no flowid
  expect_error(
      "tc filter add dev host0 parent 1: u32 match ip sport 10 0xff00 "
      "flowid 1:1");  // bad mask
  expect_error(
      "tc filter add dev host0 parent 1: u32 match ip tos 4 0xffff flowid 1:1");
  expect_error(
      "tc filter add dev host0 parent 1: u32 match ip sport 99999 0xffff "
      "flowid 1:1");  // port overflow
  expect_error("tc filter add dev host0 parent 1: fw flowid 1:1");
  expect_error("tc filter add dev host0 protocol ipv6 parent 1: u32 flowid 1:1");
  expect_error("tc filter del dev host0 pref x");
  // 2^32 + 1 must not wrap to pref 1, on add or on del.
  expect_error(
      "tc filter add dev host0 parent 1: pref 4294967297 u32 flowid 1:1");
  expect_error("tc filter del dev host0 pref 4294967297");
  expect_error("tc filter del dev host0 pref 10 64");  // not pref 10
}

}  // namespace
}  // namespace tls::tc
