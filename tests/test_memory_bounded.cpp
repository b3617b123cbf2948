#include "parallel/memory_bounded.hpp"

#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "parallel/par_deepest_first.hpp"
#include "sequential/postorder.hpp"
#include "test_helpers.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

constexpr MemSize kHuge = ~MemSize{0} / 4;

TEST(MemoryBounded, InfeasibleCapIsRejected) {
  Tree t = fork_tree(3);  // postorder peak = 4
  EXPECT_EQ(min_feasible_cap(t), 4u);
  EXPECT_FALSE(memory_bounded_schedule(t, 2, 3).has_value());
  EXPECT_TRUE(memory_bounded_schedule(t, 2, 4).has_value());
}

TEST(MemoryBounded, NeverExceedsCap) {
  Rng rng(401);
  for (int trial = 0; trial < 40; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(120);
    params.max_output = 7;
    params.max_exec = 4;
    params.min_work = 1.0;
    params.max_work = 5.0;
    params.depth_bias = rng.uniform01() * 2;
    Tree t = random_tree(params, rng);
    const MemSize floor_cap = min_feasible_cap(t);
    for (double factor : {1.0, 1.5, 3.0}) {
      const auto cap =
          static_cast<MemSize>((double)floor_cap * factor) + 1;
      auto r = memory_bounded_schedule(t, 4, cap);
      ASSERT_TRUE(r.has_value());
      ASSERT_TRUE(validate_schedule(t, *r, 4).ok);
      EXPECT_LE(simulate(t, *r).peak_memory, cap);
    }
  }
}

TEST(MemoryBounded, TightCapDegeneratesTowardSequential) {
  Rng rng(409);
  RandomTreeParams params;
  params.n = 60;
  params.max_output = 5;
  params.max_exec = 2;
  Tree t = random_tree(params, rng);
  const MemSize cap = min_feasible_cap(t);
  auto r = memory_bounded_schedule(t, 8, cap);
  ASSERT_TRUE(r.has_value());
  EXPECT_LE(simulate(t, *r).peak_memory, cap);
}

TEST(MemoryBounded, LooseCapMatchesUnboundedListSchedule) {
  Rng rng(419);
  for (int trial = 0; trial < 20; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(100);
    params.max_output = 5;
    params.max_exec = 2;
    params.min_work = 1.0;
    params.max_work = 4.0;
    Tree t = random_tree(params, rng);
    auto r = memory_bounded_schedule(t, 4, kHuge);
    ASSERT_TRUE(r.has_value());
    // Same priority (deepest-first over optimal postorder) unbounded:
    Schedule unbounded = par_deepest_first(t, 4);
    EXPECT_DOUBLE_EQ(simulate(t, *r).makespan,
                     simulate(t, unbounded).makespan);
  }
}

TEST(MemoryBounded, UnlimitedCapIsParDeepestFirstBitForBit) {
  // With room for every ready task the banker refuses nothing, so the
  // audit window never ends a round early: every round starts as many
  // tasks as Algorithm 3 does, even when more than 16 are ready (a fork
  // of 100 leaves at p = 64 runs in 2 rounds, not 8).
  Rng rng(439);
  std::vector<Tree> trees = {fork_tree(100)};
  for (int trial = 0; trial < 4; ++trial) {
    RandomTreeParams params;
    params.n = 200 + (NodeId)rng.uniform(200);
    params.max_output = 5;
    params.max_exec = 3;
    params.min_work = 1.0;
    params.max_work = 4.0;
    params.depth_bias = trial * 0.5;
    trees.push_back(random_tree(params, rng));
  }
  for (const Tree& t : trees) {
    for (int p : {2, 16, 17, 32, 64}) {
      const auto r = memory_bounded_schedule(t, p, kHuge);
      ASSERT_TRUE(r.has_value());
      const Schedule want = par_deepest_first(t, p);
      EXPECT_EQ(r->start, want.start) << "n = " << t.size() << ", p = " << p;
      EXPECT_EQ(r->proc, want.proc) << "n = " << t.size() << ", p = " << p;
    }
  }
  const Tree& fork = trees.front();
  EXPECT_DOUBLE_EQ(
      simulate(fork, *memory_bounded_schedule(fork, 64, kHuge)).makespan,
      3.0);
}

TEST(MemoryBounded, MakespanImprovesWithCap) {
  // The trade-off curve must be monotone (weakly) in the cap.
  Rng rng(421);
  RandomTreeParams params;
  params.n = 150;
  params.max_output = 6;
  params.max_exec = 3;
  params.min_work = 1.0;
  params.max_work = 6.0;
  Tree t = random_tree(params, rng);
  const auto floor_cap = (double)min_feasible_cap(t);
  double prev = 1e300;
  int monotone_violations = 0;
  for (double f : {1.0, 1.3, 2.0, 4.0, 16.0}) {
    auto r = memory_bounded_schedule(t, 8, (MemSize)(floor_cap * f) + 1);
    ASSERT_TRUE(r.has_value());
    const double ms = simulate(t, *r).makespan;
    if (ms > prev + 1e-9) ++monotone_violations;
    prev = ms;
  }
  // The admission heuristic is greedy, so allow one local wobble but not a
  // systematically inverted curve.
  EXPECT_LE(monotone_violations, 1);
}

TEST(MemoryBounded, AdversaryTreeIsTamed) {
  // On the Figure-4 adversary, ParInnerFirst blows memory up; the bounded
  // scheduler with cap = 2 * M_seq must stay within it and still finish.
  const int p = 4;
  Tree t = innerfirst_adversary_tree(10, p);
  const MemSize mseq = min_feasible_cap(t);
  auto r = memory_bounded_schedule(t, p, 2 * mseq);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(validate_schedule(t, *r, p).ok);
  EXPECT_LE(simulate(t, *r).peak_memory, 2 * mseq);
}

TEST(MemoryBounded, PebbleGameRespectsExactCap) {
  // Unit-weight chain pairs: sequential needs 2... use fork: cap exactly
  // the root requirement.
  Tree t = fork_tree(5);
  const MemSize cap = 6;  // root: 5 inputs + 1 output
  auto r = memory_bounded_schedule(t, 5, cap);
  ASSERT_TRUE(r.has_value());
  const auto sim = simulate(t, *r);
  EXPECT_LE(sim.peak_memory, cap);
  // All 5 leaves fit at once (5 <= 6), so the makespan is 2.
  EXPECT_DOUBLE_EQ(sim.makespan, 2.0);
}

}  // namespace
}  // namespace treesched
