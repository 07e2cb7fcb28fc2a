// Supplementary utility tests: Args::reject_unread, CSV file round-trips, stats
// formatting, histogram edges, and RNG stream-independence properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/arena.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace crmd::util {
namespace {

/// The addresses a fresh arena hands out for a fixed request sequence that
/// spans its first four blocks (16, 32, 64 and 128 KiB).
std::vector<void*> fill(MonotonicArena& arena) {
  std::vector<void*> out;
  for (int k = 0; k < 200; ++k) {
    out.push_back(arena.allocate(1000, 8));
  }
  return out;
}

// A dying arena hands its blocks to its thread's cache: the next arena on
// that thread grows into the same blocks, an arena on another thread does
// not, and a moved-from arena leaves the cache as it was.
TEST(Arena, DeadArenasBlocksServeTheNextArenaOnTheirThread) {
  std::vector<void*> first;
  {
    MonotonicArena arena;
    first = fill(arena);
  }
  // Heap blocks of the same sizes, held while the next arena grows: the
  // allocator may hand a freed block's address straight back, so only a
  // cache that still owns `first`'s blocks makes the match below certain.
  std::vector<std::unique_ptr<std::byte[]>> decoys;
  for (const unsigned kib : {16u, 32u, 64u, 128u}) {
    decoys.push_back(std::make_unique<std::byte[]>(std::size_t{kib} << 10));
  }
  std::vector<void*> second;
  {
    MonotonicArena arena;
    second = fill(arena);
    EXPECT_EQ(second, first);
  }
  std::vector<void*> elsewhere;
  std::thread([&elsewhere] {
    MonotonicArena arena;
    elsewhere = fill(arena);
  }).join();
  // This thread's cache still owns `first`'s blocks, so no allocation on
  // the other thread can have landed in them.
  ASSERT_EQ(elsewhere.size(), first.size());
  for (void* p : elsewhere) {
    EXPECT_EQ(std::find(first.begin(), first.end(), p), first.end());
  }
  // An arena whose block sizes (3000 B doubling) match none in the cache
  // takes nothing from it; once moved from, its death must leave the
  // cache holding `first`'s blocks.
  {
    auto source = std::make_unique<MonotonicArena>(3000);
    fill(*source);
    const MonotonicArena target(std::move(*source));
    EXPECT_EQ(source->bytes_reserved(), 0u);
    source.reset();
    MonotonicArena again;
    EXPECT_EQ(fill(again), first);
  }
}

TEST(ArgsMore, RejectUnreadNamesEveryUnreadFlag) {
  const char* argv[] = {"prog", "--b=2", "--a=1", "--flag", "pos"};
  Args args(5, argv);
  EXPECT_EQ(args.get_int("b", 0), 2);
  try {
    args.reject_unread();
    FAIL() << "an unread flag passed";
  } catch (const std::invalid_argument& e) {
    // One line, flags in sorted order, then the positional.
    EXPECT_STREQ(e.what(),
                 "unknown flags --a, --flag; unexpected argument pos");
  }
  EXPECT_TRUE(args.has("a"));
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.positional().size(), 1u);
  EXPECT_NO_THROW(args.reject_unread());
}

TEST(ArgsMore, EmptyValue) {
  const char* argv[] = {"prog", "--x="};
  Args args(2, argv);
  EXPECT_TRUE(args.has("x"));
  EXPECT_EQ(args.get("x", "zzz"), "");
}

TEST(TableMore, SaveCsvRoundTrip) {
  Table t({"a", "b"});
  t.add_row({"1", "x,y"});
  const std::string path = "/tmp/crmd_table_test.csv";
  ASSERT_TRUE(t.save_csv(path));
  std::ifstream in(path);
  std::string line1;
  std::string line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,b");
  EXPECT_EQ(line2, "1,\"x,y\"");
  std::remove(path.c_str());
}

TEST(TableMore, SaveCsvFailsOnBadPath) {
  Table t({"a"});
  EXPECT_FALSE(t.save_csv("/no-such-dir/t.csv"));
}

TEST(StatsMore, MergeIntoEmpty) {
  RunningStats a;
  RunningStats b;
  b.add(3.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  // Merging an empty accumulator is a no-op.
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
}

TEST(StatsMore, SingleObservation) {
  RunningStats s;
  s.add(7.5);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 7.5);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
}

TEST(StatsMore, WilsonOnEmptyAndExtremes) {
  SuccessCounter empty;
  const auto [lo0, hi0] = empty.wilson95();
  EXPECT_DOUBLE_EQ(lo0, 0.0);
  EXPECT_DOUBLE_EQ(hi0, 1.0);

  SuccessCounter all;
  all.add_many(50, 50);
  const auto [lo1, hi1] = all.wilson95();
  EXPECT_GT(lo1, 0.9);
  EXPECT_DOUBLE_EQ(hi1, 1.0);

  SuccessCounter none;
  none.add_many(0, 50);
  const auto [lo2, hi2] = none.wilson95();
  EXPECT_NEAR(lo2, 0.0, 1e-12);
  EXPECT_LT(hi2, 0.1);
}

TEST(StatsMore, HistogramSingleBin) {
  Histogram h(0.0, 1.0, 1);
  h.add(0.2);
  h.add(0.9);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(5), 0u) << "out-of-range bin index reads as zero";
}

TEST(RngMore, ManyChildStreamsAreDistinct) {
  const Rng master(123);
  std::set<std::uint64_t> firsts;
  for (std::uint64_t s = 0; s < 1000; ++s) {
    firsts.insert(Rng(master.child(s)).next_u64());
  }
  EXPECT_EQ(firsts.size(), 1000u);
}

TEST(RngMore, BelowOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.below(1), 0u);
  }
}

TEST(RngMore, RangeSingleton) {
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.range(7, 7), 7);
  }
}

TEST(SplitMix, ReferenceSequenceAdvances) {
  // SplitMix64 is deterministic; two runs from the same state agree and
  // the state genuinely advances.
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  const auto a1 = splitmix64(s1);
  const auto a2 = splitmix64(s2);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(s1, s2);
  const auto b1 = splitmix64(s1);
  EXPECT_NE(a1, b1);
}

}  // namespace
}  // namespace crmd::util
