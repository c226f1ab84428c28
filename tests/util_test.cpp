#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace ugnirt {
namespace {

using namespace ugnirt::literals;

// ---------------------------------------------------------------- units ----

TEST(Units, Conversions) {
  EXPECT_EQ(microseconds(1.5), 1500);
  EXPECT_EQ(milliseconds(2.0), 2'000'000);
  EXPECT_EQ(seconds(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_ms(2'000'000), 2.0);
  EXPECT_EQ(3_us, 3000);
  EXPECT_EQ(2_ms, 2'000'000);
}

TEST(Units, TransferTimeRoundsUpAndHandlesZeroBandwidth) {
  EXPECT_EQ(transfer_time(1000, 1.0), 1000);
  EXPECT_EQ(transfer_time(1001, 2.0), 501);  // 500.5 rounds up
  EXPECT_EQ(transfer_time(0, 5.0), 0);
  EXPECT_EQ(transfer_time(12345, 0.0), 0);
}

TEST(Units, GbPerSecondIsBytesPerNanosecond) {
  EXPECT_DOUBLE_EQ(gb_per_s(6.0), 6.0);
  // 6 GB/s moves 6 KB in 1 us.
  EXPECT_EQ(transfer_time(6000, gb_per_s(6.0)), 1000);
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(7);
  for (std::uint32_t bound : {1u, 2u, 3u, 17u, 1000u, 1u << 30}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
  EXPECT_EQ(r.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng r(99);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(r.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DerivedStreamsAreIndependentAndStable) {
  Rng root(1234);
  Rng a1 = root.derive(1);
  Rng a2 = root.derive(1);
  Rng b = root.derive(2);
  EXPECT_EQ(a1.next_u64(), a2.next_u64());
  EXPECT_NE(a1.next_u64(), b.next_u64());
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng r(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(10.0);
  double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.5);
}

// --------------------------------------------------------------- config ----

// `key` parsed as a T, or `fallback` when it is absent or does not parse.
template <class T>
T get_or(const Config& c, const std::string& key, T fallback) {
  if (auto s = c.get_string(key)) parse_into(*s, fallback);
  return fallback;
}

TEST(Config, ParsesKeyValuesCommentsAndBlanks) {
  Config c;
  ASSERT_TRUE(c.parse_string(
      "# a comment\n"
      "alpha = 1\n"
      "\n"
      "beta=2.5  # trailing comment\n"
      "  name  =  hello world  \n"));
  EXPECT_EQ(get_or<std::int64_t>(c, "alpha", -1), 1);
  EXPECT_DOUBLE_EQ(get_or(c, "beta", -1.0), 2.5);
  EXPECT_EQ(c.get_string("name").value_or(""), "hello world");
  EXPECT_EQ(c.size(), 3u);
}

TEST(Config, RejectsMalformedLines) {
  Config c;
  EXPECT_FALSE(c.parse_string("this has no equals\n"));
  EXPECT_NE(c.last_error().find("line 1"), std::string::npos);
  Config c2;
  EXPECT_FALSE(c2.parse_string("= value\n"));
}

TEST(Config, TypedGettersRejectGarbage) {
  Config c;
  ASSERT_TRUE(c.parse_string("x = notanumber\ny = 12abc\n"));
  std::int64_t i = 7;
  double d = 7.5;
  EXPECT_FALSE(parse_into(*c.get_string("x"), i));
  EXPECT_FALSE(parse_into(*c.get_string("y"), i));
  EXPECT_FALSE(parse_into(*c.get_string("x"), d));
  EXPECT_EQ(i, 7);
  EXPECT_EQ(d, 7.5);
}

TEST(Config, BoolParsing) {
  Config c;
  ASSERT_TRUE(c.parse_string(
      "a = true\nb = FALSE\nc = 1\nd = off\ne = maybe\n"));
  EXPECT_TRUE(get_or(c, "a", false));
  EXPECT_FALSE(get_or(c, "b", true));
  EXPECT_TRUE(get_or(c, "c", false));
  EXPECT_FALSE(get_or(c, "d", true));
  EXPECT_TRUE(get_or(c, "e", true));  // unparsable -> fallback
}

TEST(Config, SetOverridesAndDumpIsSorted) {
  Config c;
  c.set("z", "1");
  c.set("a", "2");
  c.set("z", "3");
  EXPECT_EQ(c.dump(), "a = 2\nz = 3\n");
}

// Two knobs in the shape overlay() expects (see util/config.hpp).
struct SomeKnobs {
  static constexpr const char* kConfigPrefix = "some";
  int key = 0;
  std::int64_t extra_key = 0;
  template <class V>
  void fields(V&& v) {
    v("key", key);
    v("extra_key", extra_key);
  }
};

// The environment overrides a knob the Config set and one it did not.
TEST(Config, EnvOverrideAppliesToKnownAndExtraKeys) {
  Config c;
  ASSERT_TRUE(c.parse_string("some.key = 1\n"));
  SomeKnobs k;
  overlay(k, c);
  EXPECT_EQ(k.key, 1);
  ::setenv("UGNIRT_SOME_KEY", "42", 1);
  ::setenv("UGNIRT_SOME_EXTRA_KEY", "7", 1);
  overlay_env(k);
  ::unsetenv("UGNIRT_SOME_KEY");
  ::unsetenv("UGNIRT_SOME_EXTRA_KEY");
  EXPECT_EQ(k.key, 42);
  EXPECT_EQ(k.extra_key, 7);
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, RunningStatBasics) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
}

TEST(Stats, EmptyRunningStatIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

}  // namespace
}  // namespace ugnirt
