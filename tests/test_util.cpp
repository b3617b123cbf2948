#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>

#include "util/cli.hpp"
#include "util/heap.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a(), b());
  Rng a2(123);
  EXPECT_NE(a2(), c());
}

TEST(Rng, UniformBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.uniform01();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), orig.begin()));
}

TEST(Heap, MinHeapBehavior) {
  // With greater<> as Less, the top is the minimum.
  BinaryHeap<int, std::greater<int>> h;
  for (int x : {5, 1, 4, 2, 3}) h.push(x);
  EXPECT_EQ(h.size(), 5u);
  for (int expect : {1, 2, 3, 4, 5}) EXPECT_EQ(h.pop(), expect);
  EXPECT_TRUE(h.empty());
}

TEST(Heap, MaxHeapBehavior) {
  BinaryHeap<int> h;  // default less -> max on top
  for (int x : {2, 9, 4}) h.push(x);
  EXPECT_EQ(h.top(), 9);
  EXPECT_EQ(h.pop(), 9);
  EXPECT_EQ(h.pop(), 4);
  EXPECT_EQ(h.pop(), 2);
}

TEST(Heap, StressAgainstSort) {
  Rng rng(12);
  BinaryHeap<std::uint64_t, std::greater<std::uint64_t>> h;
  std::vector<std::uint64_t> ref;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform(1000);
    h.push(v);
    ref.push_back(v);
  }
  std::sort(ref.begin(), ref.end());
  for (std::uint64_t expect : ref) EXPECT_EQ(h.pop(), expect);
}

TEST(ParallelFor, CoversAllIndices) {
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; }, 8);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, SingleThreadFallback) {
  std::vector<int> hits(10, 0);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; }, 1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--alpha", "3",  "--beta=x",
                        "pos1", "--gamma", "--delta", "4.5"};
  CliArgs args(8, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get("beta", ""), "x");
  EXPECT_TRUE(args.get_bool("gamma", false));
  EXPECT_DOUBLE_EQ(args.get_double("delta", 0.0), 4.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, FallbacksAndUnknownRejection) {
  const char* argv[] = {"prog", "--known", "1", "--typo", "2"};
  CliArgs args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("known", 0), 1);
  EXPECT_EQ(args.get_int("absent", 7), 7);
  EXPECT_THROW(args.reject_unknown(), std::invalid_argument);
  args.describe("typo");
  EXPECT_NO_THROW(args.reject_unknown());
}

TEST(Cli, IntegerRangeIsInclusiveAndNamesTheFlag) {
  const char* argv[] = {"prog", "--low", "-1", "--high", "65535",
                        "--over", "65536"};
  CliArgs args(7, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("low", 0, -1, 65535), -1);
  EXPECT_EQ(args.get_int("high", 0, -1, 65535), 65535);
  EXPECT_EQ(args.get_int("absent", 7, 0, 1), 7) << "fallbacks are not checked";
  try {
    (void)args.get_int("over", 0, 0, 65535);
    ADD_FAILURE() << "65536 accepted for a [0, 65535] flag";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--over must be in [0, 65535], got 65536");
  }
  try {
    (void)args.get_int("low", 0, 0, std::numeric_limits<std::int64_t>::max());
    ADD_FAILURE() << "-1 accepted for a size";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--low must be at least 0, got -1");
  }
}

TEST(Cli, BadBooleanThrows) {
  const char* argv[] = {"prog", "--flag", "maybe"};
  CliArgs args(3, const_cast<char**>(argv));
  EXPECT_THROW((void)args.get_bool("flag", false), std::invalid_argument);
}

}  // namespace
}  // namespace treesched
