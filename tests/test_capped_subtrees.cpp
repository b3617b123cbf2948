#include "parallel/capped_subtrees.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/simulator.hpp"
#include "parallel/memory_bounded.hpp"
#include "sequential/postorder.hpp"
#include "test_helpers.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

constexpr MemSize kHuge = std::numeric_limits<MemSize>::max() / 4;

TEST(CappedSubtrees, SingleNode) {
  Tree t = testing::pebble_tree({kNoNode});
  auto r = capped_subtrees_schedule(t, 4, kHuge);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(validate_schedule(t, r->schedule, 4).ok);
}

TEST(CappedSubtrees, MinCapIsFeasibleAndTight) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(120);
    params.max_output = 8;
    params.max_exec = 4;
    params.min_work = 1.0;
    params.max_work = 5.0;
    params.depth_bias = rng.uniform01() * 2;
    Tree t = random_tree(params, rng);
    for (int p : {2, 4}) {
      const MemSize floor_cap = capped_subtrees_min_cap(t, p);
      auto r = capped_subtrees_schedule(t, p, floor_cap);
      ASSERT_TRUE(r.has_value()) << "floor must be feasible";
      ASSERT_TRUE(validate_schedule(t, r->schedule, p).ok);
      EXPECT_LE(simulate(t, r->schedule).peak_memory, floor_cap);
      // One unit below the floor must be infeasible or still within cap --
      // never exceed it silently.
      if (floor_cap > 1) {
        auto below = capped_subtrees_schedule(t, p, floor_cap - 1);
        if (below) {
          EXPECT_LE(simulate(t, below->schedule).peak_memory, floor_cap - 1);
        }
      }
    }
  }
}

TEST(CappedSubtrees, NeverExceedsCap) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(150);
    params.max_output = 9;
    params.max_exec = 3;
    params.min_work = 1.0;
    params.max_work = 4.0;
    Tree t = random_tree(params, rng);
    const MemSize floor_cap = capped_subtrees_min_cap(t, 4);
    for (double f : {1.0, 1.5, 4.0}) {
      const auto cap = (MemSize)((double)floor_cap * f);
      auto r = capped_subtrees_schedule(t, 4, cap);
      if (!r) continue;
      EXPECT_LE(simulate(t, r->schedule).peak_memory, cap);
      EXPECT_TRUE(validate_schedule(t, r->schedule, 4).ok);
    }
  }
}

TEST(CappedSubtrees, LooseCapRecoversParSubtreesParallelism) {
  // With an unbounded cap the schedule runs the same subtrees in parallel
  // as ParSubtrees (up to packing details): expect real parallelism.
  Rng rng(7);
  RandomTreeParams params;
  params.n = 300;
  params.min_work = 1.0;
  params.max_work = 5.0;
  Tree t = random_tree(params, rng);
  auto r = capped_subtrees_schedule(t, 4, kHuge);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(r->max_parallelism, 1);
  const double seq_time = t.total_work();
  EXPECT_LT(simulate(t, r->schedule).makespan, seq_time);
}

TEST(CappedSubtrees, TightCapSerializes) {
  Rng rng(9);
  RandomTreeParams params;
  params.n = 200;
  params.max_output = 6;
  params.min_work = 1.0;
  params.max_work = 3.0;
  Tree t = random_tree(params, rng);
  const MemSize floor_cap = capped_subtrees_min_cap(t, 4);
  auto r = capped_subtrees_schedule(t, 4, floor_cap);
  ASSERT_TRUE(r.has_value());
  // At the floor, parallelism collapses (not necessarily to 1, but far
  // below the loose-cap level).
  auto loose = capped_subtrees_schedule(t, 4, kHuge);
  ASSERT_TRUE(loose.has_value());
  EXPECT_LE(r->max_parallelism, loose->max_parallelism);
}

TEST(CappedSubtrees, MakespanWeaklyImprovesWithCap) {
  Rng rng(11);
  RandomTreeParams params;
  params.n = 250;
  params.max_output = 7;
  params.min_work = 1.0;
  params.max_work = 6.0;
  Tree t = random_tree(params, rng);
  const auto floor_cap = (double)capped_subtrees_min_cap(t, 8);
  double prev = 1e300;
  for (double f : {1.0, 1.5, 2.0, 4.0, 16.0}) {
    auto r = capped_subtrees_schedule(t, 8, (MemSize)(floor_cap * f));
    ASSERT_TRUE(r.has_value());
    const double ms = simulate(t, r->schedule).makespan;
    EXPECT_LE(ms, prev + 1e-9);
    prev = ms;
  }
}

TEST(CappedSubtrees, ComparableToBankerAndFloorsOrdered) {
  // Neither capped scheduler dominates the other in makespan (the static
  // scheme's whole-subtree placement can beat the banker's greedy
  // admissions and vice versa); what must hold: both respect the cap, and
  // the banker's feasibility floor (best-postorder peak) is never above
  // the static scheme's reservation floor. Also guard against either
  // scheme being pathologically slower than the other.
  Rng rng(13);
  double banker_total = 0, capped_total = 0;
  for (int trial = 0; trial < 15; ++trial) {
    RandomTreeParams params;
    params.n = 100 + (NodeId)rng.uniform(150);
    params.max_output = 8;
    params.max_exec = 2;
    params.min_work = 1.0;
    params.max_work = 5.0;
    Tree t = random_tree(params, rng);
    const MemSize cap =
        std::max(capped_subtrees_min_cap(t, 4), 2 * min_feasible_cap(t));
    auto stat = capped_subtrees_schedule(t, 4, cap);
    auto dyn = memory_bounded_schedule(t, 4, cap);
    ASSERT_TRUE(stat.has_value());
    ASSERT_TRUE(dyn.has_value());
    EXPECT_LE(simulate(t, stat->schedule).peak_memory, cap);
    EXPECT_LE(simulate(t, *dyn).peak_memory, cap);
    banker_total += simulate(t, *dyn).makespan;
    capped_total += simulate(t, stat->schedule).makespan;
  }
  EXPECT_LE(banker_total, capped_total * 2.0);
  EXPECT_LE(capped_total, banker_total * 2.0);
}

TEST(CappedSubtrees, RejectsBadP) {
  Tree t = testing::pebble_tree({kNoNode});
  EXPECT_THROW(capped_subtrees_schedule(t, 0, 10), std::invalid_argument);
}

}  // namespace
}  // namespace treesched
