#include "tc/spec.hpp"

#include <gtest/gtest.h>

namespace tls::tc {
namespace {

TEST(Handle, ParsesMajorOnly) {
  auto h = Handle::parse("1:");
  ASSERT_TRUE(h);
  EXPECT_EQ(h->major, 1);
  EXPECT_EQ(h->minor, 0);
}

TEST(Handle, ParsesHexComponents) {
  auto h = Handle::parse("1:a");
  ASSERT_TRUE(h);
  EXPECT_EQ(h->minor, 10);
  h = Handle::parse("ffff:1");
  ASSERT_TRUE(h);
  EXPECT_EQ(h->major, 0xFFFF);
  h = Handle::parse("1:3f");
  ASSERT_TRUE(h);
  EXPECT_EQ(h->minor, 0x3F);
}

TEST(Handle, ParsesMinorOnly) {
  auto h = Handle::parse(":5");
  ASSERT_TRUE(h);
  EXPECT_EQ(h->major, 0);
  EXPECT_EQ(h->minor, 5);
}

TEST(Handle, RejectsMalformed) {
  EXPECT_FALSE(Handle::parse(""));
  EXPECT_FALSE(Handle::parse(":"));
  EXPECT_FALSE(Handle::parse("1"));
  EXPECT_FALSE(Handle::parse("1:zz"));
  EXPECT_FALSE(Handle::parse("12345:1"));  // > 4 hex digits
  EXPECT_FALSE(Handle::parse("1:1:1"));
}

TEST(Handle, FormatsLowercaseHex) {
  EXPECT_EQ((Handle{1, 0}).str(), "1:");
  EXPECT_EQ((Handle{1, 10}).str(), "1:a");
  EXPECT_EQ((Handle{0xFFFF, 0x3F}).str(), "ffff:3f");
}

TEST(Handle, RoundTrips) {
  for (const char* text : {"1:", "2:10", "a:b", "ffff:ffff"}) {
    auto h = Handle::parse(text);
    ASSERT_TRUE(h) << text;
    EXPECT_EQ(Handle::parse(h->str()), h);
  }
}

TEST(ParseRate, BitSuffixesAreBitsPerSecond) {
  EXPECT_DOUBLE_EQ(net::to_double(*parse_rate("8bit")), 1.0);
  EXPECT_DOUBLE_EQ(net::to_double(*parse_rate("8kbit")), 1e3);
  EXPECT_DOUBLE_EQ(net::to_double(*parse_rate("8mbit")), 1e6);
  EXPECT_DOUBLE_EQ(net::to_double(*parse_rate("8gbit")), 1e9);
  EXPECT_DOUBLE_EQ(net::to_double(*parse_rate("10gbit")), 10e9 / 8);
}

TEST(ParseRate, BpsSuffixesAreBytesPerSecond) {
  // tc(8): "bps" means bytes per second.
  EXPECT_DOUBLE_EQ(net::to_double(*parse_rate("100bps")), 100.0);
  EXPECT_DOUBLE_EQ(net::to_double(*parse_rate("1kbps")), 1e3);
  EXPECT_DOUBLE_EQ(net::to_double(*parse_rate("1mbps")), 1e6);
}

TEST(ParseRate, BareNumberIsBits) {
  EXPECT_DOUBLE_EQ(net::to_double(*parse_rate("800")), 100.0);
}

TEST(ParseRate, FractionsAndCase) {
  EXPECT_DOUBLE_EQ(net::to_double(*parse_rate("1.5mbit")), 1.5e6 / 8);
  EXPECT_DOUBLE_EQ(net::to_double(*parse_rate("1MBit")), 1e6 / 8);
}

TEST(ParseRate, RejectsMalformed) {
  EXPECT_FALSE(parse_rate(""));
  EXPECT_FALSE(parse_rate("fast"));
  EXPECT_FALSE(parse_rate("10parsec"));
  EXPECT_FALSE(parse_rate("0mbit"));
  EXPECT_FALSE(parse_rate("mbit"));
  // 1e300 gbit overflows to inf: rejected, not an abort in net::Rate.
  EXPECT_FALSE(parse_rate(std::string(300, '9') + "gbit"));
}

TEST(ParseSize, BinaryUnits) {
  EXPECT_EQ(*parse_size("1540b"), tls::net::Bytes{1540});
  EXPECT_EQ(*parse_size("64k"), tls::net::Bytes{64 * 1024});
  EXPECT_EQ(*parse_size("1m"), tls::net::Bytes{1024 * 1024});
  EXPECT_EQ(*parse_size("2g"), tls::net::Bytes{2LL * 1024 * 1024 * 1024});
  EXPECT_EQ(*parse_size("100"), tls::net::Bytes{100});
}

TEST(ParseSize, RejectsMalformed) {
  EXPECT_FALSE(parse_size(""));
  EXPECT_FALSE(parse_size("big"));
  EXPECT_FALSE(parse_size("0k"));
  EXPECT_FALSE(parse_size("10q"));
  // 2^63 bytes and more do not fit net::Bytes.
  EXPECT_FALSE(parse_size("9223372036854775808"));
  EXPECT_FALSE(parse_size("8589934592g"));
}

TEST(FormatRate, PicksUnits) {
  EXPECT_EQ(format_rate(net::Rate{10e9 / 8}), "10gbit");
  EXPECT_EQ(format_rate(net::Rate{1e6 / 8}), "1mbit");
  EXPECT_EQ(format_rate(net::Rate{1e3 / 8}), "1kbit");
  EXPECT_EQ(format_rate(net::Rate{100.0 / 8}), "100bit");
}

TEST(FormatRate, RoundTripsThroughParse) {
  for (net::Rate r : {net::Rate{125.0}, net::Rate{125000.0}, net::Rate{1.25e8}, net::Rate{1.25e9}}) {
    EXPECT_DOUBLE_EQ(net::to_double(*parse_rate(format_rate(r))), net::to_double(r));
  }
}

TEST(QdiscKindNames, Stable) {
  EXPECT_STREQ(to_string(QdiscKind::kPfifo), "pfifo");
  EXPECT_STREQ(to_string(QdiscKind::kPrio), "prio");
  EXPECT_STREQ(to_string(QdiscKind::kHtb), "htb");
}

}  // namespace
}  // namespace tls::tc
