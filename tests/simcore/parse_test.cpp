#include "simcore/parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace tls::sim {
namespace {

TEST(Parse, WordsSplitOnWhitespace) {
  auto t = words("  a  b\tc \n d ");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[3], "d");
  EXPECT_TRUE(words("").empty());
  EXPECT_TRUE(words(" \t\r\n").empty());
}

TEST(Parse, SplitKeepsEmptyFieldsAndCountsPastTheBuffer) {
  auto f = split("a,,b,", ',');
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[2], "b");
  EXPECT_EQ(f[3], "");
  EXPECT_EQ(split("", ',').size(), 1u);

  std::string_view two[2];
  EXPECT_EQ(split("x,y,z", ',', two, 2), 3u);
  EXPECT_EQ(two[0], "x");
  EXPECT_EQ(two[1], "y");

  EXPECT_EQ(trim(" \tqdisc=16 "), "qdisc=16");
  EXPECT_EQ(trim("   "), "");
}

TEST(Parse, IntegersAreWholeDecimalFieldsInRange) {
  int v = 0;
  EXPECT_TRUE(parse_int("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(parse_int("007", &v, 0, 7));
  EXPECT_EQ(v, 7);
  for (const char* bad : {"", "+5", " 5", "5 ", "0x10", "16x", "1e3", "1.0",
                          "nan", "2147483648", "8"}) {
    v = -1;
    EXPECT_FALSE(parse_int(bad, &v, 0, 7)) << bad;
    EXPECT_EQ(v, -1) << bad;  // untouched on failure
  }
  std::uint32_t u = 0;
  EXPECT_FALSE(parse_int("4294967296", &u));  // never wraps to 0
  EXPECT_FALSE(parse_int("-1", &u));
  std::int64_t wide = 0;
  EXPECT_TRUE(parse_int("4294967298", &wide));
  EXPECT_EQ(wide, 4294967298);
}

TEST(Parse, IntegerPrefixEndsAtTheFirstByteAfterItsDigits) {
  const std::string text = "-42,7";
  const char* last = text.data() + text.size();
  int v = 0;
  EXPECT_EQ(parse_int_prefix(text.data(), last, &v), text.data() + 3);
  EXPECT_EQ(v, -42);
  EXPECT_EQ(parse_int_prefix(text.data() + 4, last, &v), last);
  EXPECT_EQ(v, 7);
  for (const char* bad : {"", ",1", "+5", " 5", "-", "2147483648", "8,"}) {
    v = -1;
    const std::string field = bad;
    EXPECT_EQ(parse_int_prefix(field.data(), field.data() + field.size(), &v,
                               0, 7),
              nullptr)
        << bad;
    EXPECT_EQ(v, -1) << bad;  // untouched on failure
  }
}

TEST(Parse, RealsAreWholeFiniteFieldsInRange) {
  double v = 0;
  EXPECT_TRUE(parse_real("2.5", &v, 0, 10));
  EXPECT_EQ(v, 2.5);
  EXPECT_TRUE(parse_real("1e-3", &v, 0, 10));
  EXPECT_EQ(v, 1e-3);
  EXPECT_TRUE(parse_real(".5", &v, 0, 10));
  EXPECT_EQ(v, 0.5);
  for (const char* bad : {"", "+5", " 5", "5 ", "0x10", "2.5x", "1.2.3", "nan",
                          "inf", "-inf", "1e400", "11", "-1"}) {
    v = -7;
    EXPECT_FALSE(parse_real(bad, &v, 0, 10)) << bad;
    EXPECT_EQ(v, -7) << bad;
  }
}

}  // namespace
}  // namespace tls::sim
