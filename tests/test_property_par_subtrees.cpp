// ParSubtrees' memory guarantee (§5.1): its peak is within p + 1 times
// the best postorder's, on every instance family and processor count.
// One case per (p, family); see algorithm_property.hpp for the sweep.

#include <gtest/gtest.h>

#include "algorithm_property.hpp"
#include "core/simulator.hpp"
#include "sequential/postorder.hpp"

namespace treesched {
namespace {

using testing::AlgorithmProperty;
using testing::make_family_tree;
using testing::run_algo;

TEST_P(AlgorithmProperty, ParSubtreesMemoryGuarantee) {
  const auto [algo, p, fam] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Tree t = make_family_tree(fam, seed);
    const auto sim = simulate(t, run_algo(algo, t, p));
    EXPECT_LE(sim.peak_memory, (MemSize)(p + 1) * postorder(t).peak);
  }
}

// The (p+1)-approximation is ParSubtrees' theorem.
INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmProperty,
                         testing::algorithm_cases({"ParSubtrees"}),
                         testing::algorithm_case_name);

}  // namespace
}  // namespace treesched
