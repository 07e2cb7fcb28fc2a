// Unit tests for the utility layer: RNG, math helpers, statistics, table
// rendering, and CLI parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/cli.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace crmd::util {
namespace {

// ---------------------------------------------------------------- RNG ------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ChildStreamsAreStable) {
  const Rng master(7);
  Rng c1 = master.child(3);
  Rng c2 = master.child(3);
  EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(Rng, ChildStreamsAreIndependent) {
  const Rng master(7);
  Rng c1 = master.child(0);
  Rng c2 = master.child(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (c1.next_u64() == c2.next_u64()) ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.below(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BelowIsApproximatelyUniform) {
  Rng rng(19);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.below(kBuckets)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 500);
  }
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(23);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(29);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(31);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, SlotInHalfOpen) {
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    const Slot s = rng.slot_in(10, 20);
    EXPECT_GE(s, 10);
    EXPECT_LT(s, 20);
  }
}

// --------------------------------------------------------------- math ------

TEST(Math, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(-4));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(1023));
}

TEST(Math, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(4), 2);
  EXPECT_EQ(floor_log2((1LL << 40) + 5), 40);
}

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1025), 11);
}

TEST(Math, Pow2RoundTrips) {
  for (int k = 0; k < 62; ++k) {
    EXPECT_EQ(floor_log2(pow2(k)), k);
    EXPECT_TRUE(is_pow2(pow2(k)));
  }
}

TEST(Math, Pow2FloorCeil) {
  EXPECT_EQ(pow2_floor(5), 4);
  EXPECT_EQ(pow2_ceil(5), 8);
  EXPECT_EQ(pow2_floor(8), 8);
  EXPECT_EQ(pow2_ceil(8), 8);
}

TEST(Math, AlignDownUp) {
  EXPECT_EQ(align_down(13, 4), 12);
  EXPECT_EQ(align_down(12, 4), 12);
  EXPECT_EQ(align_up(13, 4), 16);
  EXPECT_EQ(align_up(12, 4), 12);
  EXPECT_EQ(align_down(0, 8), 0);
  EXPECT_EQ(align_up(1, 8), 8);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 5), 0);
}

TEST(Math, Log2AtLeast) {
  EXPECT_DOUBLE_EQ(log2_at_least(8.0, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(log2_at_least(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(log2_at_least(0.5, 2.0), 2.0);
}

// -------------------------------------------------------------- stats ------

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10;
    ((i % 2 == 0) ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SuccessCounter, RatesAndMerge) {
  SuccessCounter c;
  c.add(true);
  c.add(false);
  c.add(true);
  c.add(true);
  EXPECT_EQ(c.successes(), 3u);
  EXPECT_EQ(c.trials(), 4u);
  EXPECT_DOUBLE_EQ(c.rate(), 0.75);
  EXPECT_DOUBLE_EQ(c.failure_rate(), 0.25);

  SuccessCounter d;
  d.add_many(1, 4);
  c.merge(d);
  EXPECT_DOUBLE_EQ(c.rate(), 0.5);
}

TEST(SuccessCounter, Wilson95BracketsRate) {
  SuccessCounter c;
  c.add_many(70, 100);
  const auto [lo, hi] = c.wilson95();
  EXPECT_LT(lo, 0.7);
  EXPECT_GT(hi, 0.7);
  EXPECT_GT(lo, 0.55);
  EXPECT_LT(hi, 0.82);
}

TEST(Percentile, InterpolatesAndClamps) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.9);   // bin 4
  h.add(-3.0);  // clamped to bin 0
  h.add(15.0);  // clamped to bin 4
  h.add(5.0);   // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
  EXPECT_FALSE(h.ascii().empty());
}

// -------------------------------------------------------------- table ------

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_NO_THROW(t.add_row({"1", "2"}));
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream out;
  t.print(out, "demo");
  const std::string s = out.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("value"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCells) {
  Table t({"k"});
  t.add_row({"plain"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  std::ostringstream out;
  t.write_csv(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TableFormat, Numbers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_EQ(fmt_count(-1000), "-1,000");
  EXPECT_EQ(fmt_count(1), "1");
  EXPECT_NE(fmt_sci(0.001, 2).find("e-"), std::string::npos);
}

// ---------------------------------------------------------------- cli ------

TEST(Args, ParsesAllForms) {
  const char* argv[] = {"prog", "--a=1", "--b=2", "--flag", "pos1",
                        "--c=text"};
  Args args(6, argv);
  EXPECT_EQ(args.get_int("a", 0), 1);
  EXPECT_EQ(args.get_int("b", 0), 2);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get("c"), "text");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Args, Fallbacks) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get_int("missing", 5), 5);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 0.25), 0.25);
  EXPECT_FALSE(args.get_bool("missing", false));
  EXPECT_TRUE(args.get_bool("missing", true));
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

TEST(Args, MalformedNumbersThrow) {
  const char* argv[] = {"prog", "--x=12abc", "--word=abc",
                        "--huge=99999999999999999999"};
  Args args(4, argv);
  EXPECT_THROW((void)args.get_int("x", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("x", 0), std::invalid_argument);
  // Each error names the flag, so a harness can print it as one line.
  const auto message = [&args](const char* key, bool as_int) {
    try {
      if (as_int) {
        (void)args.get_int(key, 0);
      } else {
        (void)args.get_double(key, 0);
      }
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  for (const bool as_int : {true, false}) {
    EXPECT_NE(message("x", as_int).find("--x"), std::string::npos);
    EXPECT_NE(message("word", as_int).find("--word"), std::string::npos);
  }
  EXPECT_NE(message("huge", true).find("--huge"), std::string::npos);
  EXPECT_DOUBLE_EQ(args.get_double("huge", 0), 1e20);
}

TEST(Args, EveryAccessorRecordsItsRead) {
  const char* argv[] = {"prog", "--s=x", "--i=1", "--r=2", "--d=0.5",
                        "--b", "--h=", "stray"};
  Args args(8, argv);
  EXPECT_THROW(args.reject_unread(), std::invalid_argument);
  (void)args.get("s");
  (void)args.get_int("i", 0);
  (void)args.get_int_in("r", 0, 0, 9);
  (void)args.get_double("d", 0);
  (void)args.get_bool("b", false);
  (void)args.has("h");
  // A flag read but absent is no error; the stray positional still is.
  (void)args.get("absent");
  try {
    args.reject_unread();
    FAIL() << "an unread positional passed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unexpected argument stray");
  }
  (void)args.positional();
  EXPECT_NO_THROW(args.reject_unread());
}

TEST(Args, BoolValueForms) {
  const char* argv[] = {"prog", "--on=1", "--off=0", "--yes=yes"};
  Args args(4, argv);
  EXPECT_TRUE(args.get_bool("on", false));
  EXPECT_FALSE(args.get_bool("off", true));
  EXPECT_TRUE(args.get_bool("yes", false));
}

}  // namespace
}  // namespace crmd::util
