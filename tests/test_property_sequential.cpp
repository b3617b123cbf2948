// Sequential algorithms run on one processor whatever p they are given:
// every task on processor 0 and a makespan equal to the total work. The
// sweep covers every default-campaign algorithm whose capabilities say
// sequential_only, so a newly registered sequential scheduler is checked
// with no edit here; see algorithm_property.hpp for the sweep.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algorithm_property.hpp"
#include "sched/registry.hpp"

namespace treesched {
namespace {

using testing::AlgorithmProperty;
using testing::make_family_tree;

TEST_P(AlgorithmProperty, SequentialAlgorithmsUseOneProcessor) {
  const auto [algo, p, fam] = GetParam();
  const SchedulerPtr sched = SchedulerRegistry::instance().create(algo);
  const Tree t = make_family_tree(fam, 3);
  const Schedule s = sched->schedule(t, Resources{p, 0});
  for (NodeId i = 0; i < t.size(); ++i) EXPECT_EQ(s.proc[i], 0);
  // The total work summed in the schedule's start order, as a sequential
  // schedule sums it; total_work() sums in id order and may round apart.
  double work = 0.0;
  for (NodeId i : s.by_start_time()) work += t.work(i);
  EXPECT_DOUBLE_EQ(s.makespan(t), work);
}

std::vector<std::string> sequential_algorithms() {
  std::vector<std::string> names;
  for (const std::string& name : default_campaign_algorithms()) {
    if (SchedulerRegistry::instance().create(name)->capabilities()
            .sequential_only) {
      names.push_back(name);
    }
  }
  return names;
}

// Evaluated at test-registration time, after static initialization has
// populated the registry.
INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmProperty,
                         testing::algorithm_cases(sequential_algorithms()),
                         testing::algorithm_case_name);

}  // namespace
}  // namespace treesched
