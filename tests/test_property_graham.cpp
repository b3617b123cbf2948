// Graham's bound for the plain list schedulers (§5.2, §5.3): on every
// instance family and processor count, ParInnerFirst and ParDeepestFirst
// finish within W/p + (1 - 1/p) * CP. One case per (algorithm, p,
// family); see algorithm_property.hpp for the sweep.

#include <gtest/gtest.h>

#include "algorithm_property.hpp"
#include "core/simulator.hpp"

namespace treesched {
namespace {

using testing::AlgorithmProperty;
using testing::make_family_tree;
using testing::run_algo;

TEST_P(AlgorithmProperty, ListSchedulersMeetGrahamBound) {
  const auto [algo, p, fam] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Tree t = make_family_tree(fam, seed);
    const auto sim = simulate(t, run_algo(algo, t, p));
    const double bound =
        t.total_work() / p + (1.0 - 1.0 / p) * t.critical_path();
    EXPECT_LE(sim.makespan, bound + 1e-6);
  }
}

// The bound holds for plain list schedules only.
INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmProperty,
                         testing::algorithm_cases({"ParInnerFirst",
                                                   "ParDeepestFirst"}),
                         testing::algorithm_case_name);

}  // namespace
}  // namespace treesched
