// Parameterized property sweeps across (algorithm x processor count x
// instance family) combinations: every schedule any registered algorithm
// emits, on any instance, must be feasible and respect both lower bounds.
// The structural guarantees the paper proves for some algorithms only
// run over those algorithms, in test_property_graham,
// test_property_par_subtrees and test_property_sequential.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "algorithm_property.hpp"
#include "core/lower_bounds.hpp"
#include "parallel/capped_subtrees.hpp"
#include "parallel/memory_bounded.hpp"
#include "sched/registry.hpp"
#include "sched/validate.hpp"
#include "core/simulator.hpp"
#include "sequential/liu.hpp"
#include "sequential/postorder.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

using testing::AlgorithmProperty;
using testing::make_family_tree;
using testing::run_algo;

TEST_P(AlgorithmProperty, ScheduleIsFeasible) {
  const auto [algo, p, fam] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Tree t = make_family_tree(fam, seed);
    const Schedule s = run_algo(algo, t, p);
    const auto v = validate_schedule(t, s, p);
    EXPECT_TRUE(v.ok) << v.error;
  }
}

TEST_P(AlgorithmProperty, RespectsLowerBounds) {
  const auto [algo, p, fam] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Tree t = make_family_tree(fam, seed);
    const auto sim = simulate(t, run_algo(algo, t, p));
    EXPECT_GE(sim.makespan, makespan_lower_bound(t, p) - 1e-9);
    EXPECT_GE(sim.peak_memory, min_sequential_memory(t));
  }
}

TEST_P(AlgorithmProperty, PassesTheValidatorWithinTheTotalMemory) {
  // The validator's replay never holds more than every task's files at
  // once, zero-work tasks included.
  const auto [algo, p, fam] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Tree t = make_family_tree(fam, seed);
    const ScheduleCheck check = check_schedule(t, run_algo(algo, t, p), p);
    ASSERT_TRUE(check.ok) << check.error;
    MemSize total = 0;
    for (NodeId i = 0; i < t.size(); ++i) {
      total += t.exec_size(i) + t.output_size(i);
    }
    EXPECT_LE(check.peak_memory, total);
  }
}

TEST_P(AlgorithmProperty, EveryTaskRunsExactlyOnceAndInWindow) {
  const auto [algo, p, fam] = GetParam();
  const Tree t = make_family_tree(fam, 7);
  const Schedule s = run_algo(algo, t, p);
  const double makespan = s.makespan(t);
  for (NodeId i = 0; i < t.size(); ++i) {
    EXPECT_GE(s.start[i], 0.0);
    EXPECT_LE(s.finish(t, i), makespan + 1e-9);
    EXPECT_GE(s.proc[i], 0);
    EXPECT_LT(s.proc[i], p);
  }
}

// The sweep enumerates the registry (every default-campaign algorithm),
// so newly registered algorithms are property-checked with no edit here.
// The generator is evaluated at test-registration time, after all static
// initialization, so the registry is fully populated. The properties of
// some algorithms only have their own binaries (algorithm_property.hpp).
INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmProperty,
                         testing::algorithm_cases(
                             default_campaign_algorithms()),
                         testing::algorithm_case_name);

// ---------------------------------------------------------------------------
// Postorder policies: every policy yields a valid traversal; the optimal
// policy dominates.
// ---------------------------------------------------------------------------

class PostorderPolicyProperty
    : public ::testing::TestWithParam<PostorderPolicy> {};

TEST_P(PostorderPolicyProperty, TraversalValidAndPeakExact) {
  const PostorderPolicy policy = GetParam();
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(150);
    params.max_output = 20;
    params.max_exec = 10;
    const Tree t = random_tree(params, rng);
    const auto r = postorder(t, policy);
    ASSERT_EQ((NodeId)r.order.size(), t.size());
    EXPECT_EQ(sequential_peak_memory(t, r.order), r.peak);
    EXPECT_GE(r.peak, postorder(t, PostorderPolicy::kOptimal).peak);
    EXPECT_GE(r.peak, min_sequential_memory(t));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PostorderPolicyProperty,
    ::testing::Values(PostorderPolicy::kOptimal, PostorderPolicy::kByPeak,
                      PostorderPolicy::kByOutput, PostorderPolicy::kByWork,
                      PostorderPolicy::kNatural),
    [](const ::testing::TestParamInfo<PostorderPolicy>& info) {
      switch (info.param) {
        case PostorderPolicy::kOptimal:
          return std::string("Optimal");
        case PostorderPolicy::kByPeak:
          return std::string("ByPeak");
        case PostorderPolicy::kByOutput:
          return std::string("ByOutput");
        case PostorderPolicy::kByWork:
          return std::string("ByWork");
        case PostorderPolicy::kNatural:
          return std::string("Natural");
      }
      return std::string("?");
    });

// ---------------------------------------------------------------------------
// Exactness sweep: Liu's algorithm equals the subset-DP optimum on every
// tree shape of size n (pebble weights and randomized weights).
// ---------------------------------------------------------------------------

class LiuExactnessBySize : public ::testing::TestWithParam<NodeId> {};

TEST_P(LiuExactnessBySize, TraversalConsistentAndDominant) {
  // The brute-force equality is covered in test_liu.cpp; this sweep checks
  // structural invariants on EVERY shape of size n: the reported peak is
  // what the traversal replays to, and it never exceeds the best postorder.
  const NodeId n = GetParam();
  for (const Tree& shape : all_tree_shapes(n)) {
    const auto r = liu_optimal_traversal(shape);
    EXPECT_EQ(sequential_peak_memory(shape, r.order), r.peak);
    EXPECT_LE(r.peak, postorder(shape).peak);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallSizes, LiuExactnessBySize,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8),
                         [](const ::testing::TestParamInfo<NodeId>& info) {
                           return "n" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Cross-validation on randomized oracle-sized trees: every registered
// scheduler (the exponential oracle included) against the standalone
// validator (sched/validate.hpp) and the BruteForceSeq optimum.
// ---------------------------------------------------------------------------

/// Oracle-compatible random instance: n in [4, 14] (the BruteForceSeq DP
/// is O(2^n n)), alternating pebble-game and weighted trees.
Tree small_random_tree(Rng& rng, int trial) {
  RandomTreeParams params;
  params.n = 4 + static_cast<NodeId>(rng.uniform(11));
  params.depth_bias = static_cast<double>(trial % 3);
  if (trial % 2 == 1) {
    params.max_output = 30;
    params.max_exec = 10;
    params.min_work = 1.0;
    params.max_work = 20.0;
  }
  return random_tree(params, rng);
}

TEST(CrossValidation, EverySchedulerPassesTheValidatorOnRandomTrees) {
  // ~200 random instances x the full registry (10 schedulers) x a random
  // p: the validator independently re-derives feasibility, concurrency
  // and the memory accounting for every schedule the roster emits.
  Rng rng(0xC0FFEE);
  const std::vector<std::string> names =
      SchedulerRegistry::instance().names();
  ASSERT_EQ(names.size(), 10u);
  for (int trial = 0; trial < 200; ++trial) {
    const Tree t = small_random_tree(rng, trial);
    const int p = 1 + static_cast<int>(rng.uniform(4));
    for (const std::string& name : names) {
      const SchedulerPtr sched = SchedulerRegistry::instance().create(name);
      const Schedule s = sched->schedule(t, Resources{p, 0});
      const ScheduleCheck check = check_schedule(t, s, p);
      ASSERT_TRUE(check.ok)
          << name << " on trial " << trial << " (n = " << t.size()
          << ", p = " << p << "): " << check.error;
      EXPECT_LE(check.max_concurrency, p) << name;
      EXPECT_GE(check.peak_memory, min_sequential_memory(t)) << name;
    }
  }
}

TEST(CrossValidation, NoSchedulerBeatsTheOracleOnSequentialInstances) {
  // On p = 1 every schedule is a traversal: BruteForceSeq realizes the
  // exact memory optimum, and its makespan (= total work) is the
  // sequential optimum — no registered scheduler may beat either.
  Rng rng(0x0bac1e);
  const std::vector<std::string> names =
      SchedulerRegistry::instance().names();
  for (int trial = 0; trial < 100; ++trial) {
    const Tree t = small_random_tree(rng, trial);
    const SchedulerPtr oracle =
        SchedulerRegistry::instance().create("BruteForceSeq");
    const SimulationResult best =
        simulate(t, oracle->schedule(t, Resources{1, 0}));
    for (const std::string& name : names) {
      if (name == "BruteForceSeq") continue;
      const SchedulerPtr sched = SchedulerRegistry::instance().create(name);
      const SimulationResult sim =
          simulate(t, sched->schedule(t, Resources{1, 0}));
      EXPECT_GE(sim.peak_memory, best.peak_memory)
          << name << " beat the exact memory optimum on trial " << trial;
      EXPECT_GE(sim.makespan, best.makespan - 1e-9)
          << name << " beat the sequential makespan optimum on trial "
          << trial;
    }
  }
}

/// The smallest cap `name` accepts on (tree, p): the two parallel capped
/// schemes export their floor; a sequential capped scheduler's floor is
/// its own (cap-independent) traversal's peak.
MemSize feasibility_floor(const std::string& name, const Tree& t, int p) {
  if (name == "MemoryBounded") return min_feasible_cap(t);
  if (name == "CappedSubtrees") return capped_subtrees_min_cap(t, p);
  const SchedulerPtr sched = SchedulerRegistry::instance().create(name);
  return simulate(t, sched->schedule(t, Resources{p, 0})).peak_memory;
}

TEST(CrossValidation, CappedSchedulersRespectShrinkingCaps) {
  // Sweep the cap from 2x the scheduler's feasibility floor down to the
  // floor itself: the schedule must stay within every accepted cap (the
  // validator re-checks the exact replay), and one byte below the floor
  // must be rejected, never silently exceeded.
  Rng rng(0xCA9);
  const std::vector<std::string> capped =
      SchedulerRegistry::instance().names_where([](const Scheduler& s) {
        return s.capabilities().memory_capped && !s.capabilities().is_oracle();
      });
  EXPECT_GE(capped.size(), 4u);  // MemoryBounded, CappedSubtrees, Liu, ...
  for (int trial = 0; trial < 30; ++trial) {
    const Tree t = small_random_tree(rng, trial);
    const int p = 1 + static_cast<int>(rng.uniform(4));
    for (const std::string& name : capped) {
      const SchedulerPtr sched = SchedulerRegistry::instance().create(name);
      const int eff_p = sched->capabilities().sequential_only ? 1 : p;
      const MemSize floor = feasibility_floor(name, t, eff_p);
      ASSERT_GT(floor, 0u) << name;
      for (const double factor : {2.0, 1.5, 1.0}) {
        const MemSize cap = static_cast<MemSize>(
            std::ceil(static_cast<double>(floor) * factor));
        const Schedule s = sched->schedule(t, Resources{eff_p, cap});
        const ScheduleCheck check = check_schedule(t, s, eff_p, cap);
        ASSERT_TRUE(check.ok)
            << name << " with cap " << factor << "x floor on trial "
            << trial << ": " << check.error;
      }
      if (floor > 1) {  // floor - 1 == 0 would mean "no cap", not a cap
        EXPECT_THROW(
            (void)sched->schedule(t, Resources{eff_p, floor - 1}),
            std::invalid_argument)
            << name << " accepted a cap below its feasibility floor";
      }
    }
  }
}

}  // namespace
}  // namespace treesched
