// Parameterized sweeps over the two memory-capped schedulers: for every
// (scheduler, processor count, cap factor) combination, the cap is a hard
// invariant, schedules stay feasible, and completion is guaranteed.

#include <gtest/gtest.h>

#include <optional>
#include <tuple>

#include "core/simulator.hpp"
#include "parallel/capped_subtrees.hpp"
#include "parallel/memory_bounded.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

enum class Scheme { kBanker, kStaticSubtrees };

struct RunOutcome {
  bool feasible = false;
  Schedule schedule;
  MemSize cap = 0;
};

RunOutcome run_scheme(Scheme scheme, const Tree& t, int p, double factor) {
  RunOutcome out;
  const MemSize floor_cap = scheme == Scheme::kBanker
                                ? min_feasible_cap(t)
                                : capped_subtrees_min_cap(t, p);
  out.cap = (MemSize)((double)floor_cap * factor);
  if (scheme == Scheme::kBanker) {
    auto r = memory_bounded_schedule(t, p, out.cap);
    if (r) {
      out.feasible = true;
      out.schedule = std::move(*r);
    }
  } else {
    auto r = capped_subtrees_schedule(t, p, out.cap);
    if (r) {
      out.feasible = true;
      out.schedule = std::move(r->schedule);
    }
  }
  return out;
}

using BoundedCase = std::tuple<Scheme, int, double>;

class BoundedSchedulerProperty
    : public ::testing::TestWithParam<BoundedCase> {};

TEST_P(BoundedSchedulerProperty, FeasibleAtOwnFloorTimesFactor) {
  const auto [scheme, p, factor] = GetParam();
  Rng rng(0xb0eed);
  for (int trial = 0; trial < 8; ++trial) {
    RandomTreeParams params;
    params.n = 30 + (NodeId)rng.uniform(150);
    params.max_output = 9;
    params.max_exec = 4;
    params.min_work = 1.0;
    params.max_work = 5.0;
    params.depth_bias = rng.uniform01() * 2;
    const Tree t = random_tree(params, rng);
    const RunOutcome out = run_scheme(scheme, t, p, factor);
    ASSERT_TRUE(out.feasible)
        << "cap = factor * own floor must be feasible (factor " << factor
        << ")";
    const auto v = validate_schedule(t, out.schedule, p);
    ASSERT_TRUE(v.ok) << v.error;
    EXPECT_LE(simulate(t, out.schedule).peak_memory, out.cap);
  }
}

TEST_P(BoundedSchedulerProperty, CapBindsOnAdversaries) {
  const auto [scheme, p, factor] = GetParam();
  // Adversarial instances where unbounded schedules blow memory up.
  for (const Tree& t :
       {innerfirst_adversary_tree(8, 4), chains_tree(12, 6)}) {
    const RunOutcome out = run_scheme(scheme, t, p, factor);
    ASSERT_TRUE(out.feasible);
    EXPECT_LE(simulate(t, out.schedule).peak_memory, out.cap);
  }
}

std::string bounded_case_name(
    const ::testing::TestParamInfo<BoundedCase>& info) {
  const auto [scheme, p, factor] = info.param;
  std::string name =
      scheme == Scheme::kBanker ? "Banker" : "StaticSubtrees";
  name += "_p" + std::to_string(p) + "_x";
  name += std::to_string((int)(factor * 100));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    CapSweep, BoundedSchedulerProperty,
    ::testing::Combine(::testing::Values(Scheme::kBanker,
                                         Scheme::kStaticSubtrees),
                       ::testing::Values(2, 4, 16),
                       ::testing::Values(1.0, 1.5, 3.0, 10.0)),
    bounded_case_name);

}  // namespace
}  // namespace treesched
