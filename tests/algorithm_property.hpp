#pragma once
// The (algorithm x processor count x instance family) property sweep:
// its tree families, its fixture and its case names. Each property is
// instantiated only over the algorithms it applies to. An instantiation
// runs every property of its fixture, so each algorithm set has its own
// binary: test_properties (every default-campaign algorithm),
// test_property_graham, test_property_par_subtrees and
// test_property_sequential. Every instantiation is named
// AllAlgorithms/AlgorithmProperty, so a case is named
// AllAlgorithms/AlgorithmProperty.<property>/<algo>_p<p>_<family>
// whichever binary runs it.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/tree.hpp"
#include "sched/registry.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace treesched::testing {

/// kZeroWork: every task has zero work; kMixedZeroWork: about a third do.
enum class Family {
  kPebbleShallow,
  kPebbleDeep,
  kWeighted,
  kAssemblyLike,
  kZeroWork,
  kMixedZeroWork,
};

inline std::string family_name(Family f) {
  switch (f) {
    case Family::kPebbleShallow:
      return "PebbleShallow";
    case Family::kPebbleDeep:
      return "PebbleDeep";
    case Family::kWeighted:
      return "Weighted";
    case Family::kAssemblyLike:
      return "AssemblyLike";
    case Family::kZeroWork:
      return "ZeroWork";
    case Family::kMixedZeroWork:
      return "MixedZeroWork";
  }
  return "?";
}

inline Tree make_family_tree(Family f, std::uint64_t seed) {
  Rng rng(seed);
  RandomTreeParams params;
  params.n = 60 + (NodeId)rng.uniform(120);
  switch (f) {
    case Family::kPebbleShallow:
      break;
    case Family::kPebbleDeep:
      params.depth_bias = 5.0;
      break;
    case Family::kWeighted:
      params.max_output = 50;
      params.max_exec = 20;
      params.min_work = 1.0;
      params.max_work = 40.0;
      params.depth_bias = 1.0;
      break;
    case Family::kAssemblyLike:
      params.max_output = 400;
      params.max_exec = 100;
      params.min_work = 1.0;
      params.max_work = 1000.0;
      params.depth_bias = 2.0;
      break;
    case Family::kZeroWork:
      params.max_output = 50;
      params.max_exec = 20;
      params.min_work = 0.0;
      params.max_work = 0.0;
      params.depth_bias = 1.0;
      break;
    case Family::kMixedZeroWork: {
      params.max_output = 50;
      params.max_exec = 20;
      params.min_work = 1.0;
      params.max_work = 40.0;
      params.depth_bias = 1.0;
      const Tree t = random_tree(params, rng);
      std::vector<NodeId> parent;
      std::vector<MemSize> out, exec;
      std::vector<double> work;
      for (NodeId i = 0; i < t.size(); ++i) {
        parent.push_back(t.parent(i));
        out.push_back(t.output_size(i));
        exec.push_back(t.exec_size(i));
        work.push_back(rng.uniform(3) == 0 ? 0.0 : t.work(i));
      }
      return Tree(std::move(parent), std::move(out), std::move(exec),
                  std::move(work));
    }
  }
  return random_tree(params, rng);
}

using AlgorithmCase = std::tuple<std::string, int, Family>;

inline Schedule run_algo(const std::string& name, const Tree& t, int p) {
  return SchedulerRegistry::instance().create(name)->schedule(
      t, Resources{p, 0});
}

class AlgorithmProperty : public ::testing::TestWithParam<AlgorithmCase> {};

/// Every case of the sweep over `algos`: p in {2, 4, 16, 32} times the
/// six tree families. At p = 32 a round can see more than 16 ready tasks.
inline auto algorithm_cases(const std::vector<std::string>& algos) {
  return ::testing::Combine(
      ::testing::ValuesIn(algos), ::testing::Values(2, 4, 16, 32),
      ::testing::Values(Family::kPebbleShallow, Family::kPebbleDeep,
                        Family::kWeighted, Family::kAssemblyLike,
                        Family::kZeroWork, Family::kMixedZeroWork));
}

inline std::string algorithm_case_name(
    const ::testing::TestParamInfo<AlgorithmCase>& info) {
  const auto [algo, p, fam] = info.param;
  return algo + "_p" + std::to_string(p) + "_" + family_name(fam);
}

}  // namespace treesched::testing
