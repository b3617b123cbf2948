#include "parallel/list_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/lower_bounds.hpp"
#include "core/simulator.hpp"
#include "parallel/par_deepest_first.hpp"
#include "parallel/par_inner_first.hpp"
#include "sequential/bruteforce.hpp"
#include "sequential/postorder.hpp"
#include "test_helpers.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

using testing::pebble_tree;

std::vector<PriorityKey> fifo_keys(const Tree& tree) {
  std::vector<PriorityKey> keys(static_cast<std::size_t>(tree.size()));
  for (NodeId i = 0; i < tree.size(); ++i) {
    keys[i].k1 = static_cast<double>(i);
  }
  return keys;
}

TEST(ListScheduler, SingleProcessorIsSequential) {
  Rng rng(1);
  Tree t = random_pebble_tree(40, rng);
  Schedule s = list_schedule(t, 1, fifo_keys(t));
  EXPECT_TRUE(validate_schedule(t, s, 1).ok);
  EXPECT_DOUBLE_EQ(simulate(t, s).makespan, t.total_work());
}

TEST(ListScheduler, NeverIdlesWhileReady) {
  // Graham property on a fork: with p procs and p*k leaves, the parallel
  // phase takes exactly k steps.
  Tree t = fork_tree(12);
  Schedule s = list_schedule(t, 4, fifo_keys(t));
  EXPECT_TRUE(validate_schedule(t, s, 4).ok);
  EXPECT_DOUBLE_EQ(simulate(t, s).makespan, 4.0);  // 12/4 + 1
}

TEST(ListScheduler, RespectsPriorities) {
  // Two leaves; priority picks node 2 first on one processor.
  Tree t = pebble_tree({kNoNode, 0, 0});
  std::vector<PriorityKey> keys(3);
  keys[1].k1 = 5.0;
  keys[2].k1 = 1.0;
  Schedule s = list_schedule(t, 1, keys);
  EXPECT_LT(s.start[2], s.start[1]);
}

TEST(ListScheduler, GrahamBoundHolds) {
  // Any list schedule satisfies Cmax <= W/p + (1 - 1/p) * CP.
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(150);
    params.min_work = 1.0;
    params.max_work = 9.0;
    params.depth_bias = rng.uniform01() * 3;
    Tree t = random_tree(params, rng);
    for (int p : {2, 4, 7}) {
      Schedule s = list_schedule(t, p, fifo_keys(t));
      ASSERT_TRUE(validate_schedule(t, s, p).ok);
      const double cmax = simulate(t, s).makespan;
      const double bound = t.total_work() / p +
                           (1.0 - 1.0 / p) * t.critical_path();
      EXPECT_LE(cmax, bound + 1e-6);
    }
  }
}

TEST(ListScheduler, TwoApproxAgainstBruteForceOptimum) {
  // On tiny pebble trees, compare against the true parallel optimum:
  // list schedules must be within (2 - 1/p) of it.
  Rng rng(79);
  for (int trial = 0; trial < 25; ++trial) {
    Tree t = random_pebble_tree(2 + (NodeId)rng.uniform(9), rng);
    for (int p : {2, 3}) {
      const double opt = bruteforce_min_makespan_unit(t, p, 1u << 30);
      using Maker = Schedule (*)(const Tree&, int);
      for (Maker maker : {static_cast<Maker>(par_inner_first),
                          static_cast<Maker>(par_deepest_first)}) {
        Schedule s = maker(t, p);
        const double cmax = simulate(t, s).makespan;
        EXPECT_LE(cmax, (2.0 - 1.0 / p) * opt + 1e-9);
        EXPECT_GE(cmax, opt - 1e-9);
      }
    }
  }
}

TEST(ListScheduler, MoreProcessorsNeverIncreaseMakespan) {
  Rng rng(83);
  for (int trial = 0; trial < 20; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(100);
    params.min_work = 1.0;
    params.max_work = 5.0;
    Tree t = random_tree(params, rng);
    auto keys = deepest_first_priorities(t, postorder(t).order);
    double prev = 1e300;
    for (int p : {1, 2, 4, 8, 16}) {
      const double cmax = simulate(t, list_schedule(t, p, keys)).makespan;
      EXPECT_LE(cmax, prev + 1e-9);
      prev = cmax;
    }
  }
}

TEST(ListScheduler, MakespanAtLeastLowerBound) {
  Rng rng(89);
  for (int trial = 0; trial < 30; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(120);
    params.min_work = 1.0;
    params.max_work = 7.0;
    Tree t = random_tree(params, rng);
    for (int p : {2, 5}) {
      Schedule s = list_schedule(t, p, fifo_keys(t));
      EXPECT_GE(simulate(t, s).makespan,
                makespan_lower_bound(t, p) - 1e-9);
    }
  }
}

TEST(ListScheduler, RejectsBadArguments) {
  Tree t = pebble_tree({kNoNode});
  EXPECT_THROW(list_schedule(t, 0, fifo_keys(t)), std::invalid_argument);
  EXPECT_THROW(list_schedule(t, 1, {}), std::invalid_argument);
}

// Admits every task and counts what it hears.
class AdmitAll final : public AdmissionHook {
 public:
  Admission admit(NodeId) override {
    ++starts;
    return Admission::kStart;
  }
  void finished(NodeId) override { ++finishes; }
  int starts = 0;
  int finishes = 0;
};

TEST(ListScheduler, AHookThatAdmitsEveryTaskChangesNothing) {
  Rng rng(97);
  for (int trial = 0; trial < 10; ++trial) {
    Tree t = random_pebble_tree(50 + 20 * trial, rng, 0.5 * (trial % 3));
    const auto keys = deepest_first_priorities(t, postorder(t).order);
    for (int p : {1, 3, 32}) {
      AdmitAll hook;
      const Schedule with = list_schedule(t, p, keys, &hook);
      const Schedule without = list_schedule(t, p, keys);
      EXPECT_EQ(with.start, without.start);
      EXPECT_EQ(with.proc, without.proc);
      EXPECT_EQ(hook.starts, t.size());
      EXPECT_EQ(hook.finishes, t.size());
    }
  }
}

// Starts one task per round: every round ends at its second candidate.
class OnePerRound final : public AdmissionHook {
 public:
  Admission admit(NodeId) override {
    if (started_this_round_) return Admission::kEndRound;
    started_this_round_ = true;
    return Admission::kStart;
  }
  void finished(NodeId) override { started_this_round_ = false; }

 private:
  bool started_this_round_ = false;
};

TEST(ListScheduler, EndingARoundLeavesTheRestReadyForTheNext) {
  // Rounds run at finish events only, so four unit leaves start at
  // 0, 1, 2 and 3 however many processors idle, and the root at 4.
  const Tree t = fork_tree(4);
  OnePerRound hook;
  const Schedule s = list_schedule(t, 4, fifo_keys(t), &hook);
  std::vector<double> leaf_starts;
  for (NodeId i = 0; i < t.size(); ++i) {
    if (t.is_leaf(i)) leaf_starts.push_back(s.start[i]);
  }
  std::sort(leaf_starts.begin(), leaf_starts.end());
  EXPECT_EQ(leaf_starts, (std::vector<double>{0.0, 1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(s.start[t.root()], 4.0);
  EXPECT_TRUE(validate_schedule(t, s, 4).ok);
}

class RefuseAll final : public AdmissionHook {
 public:
  Admission admit(NodeId) override { return Admission::kDefer; }
  void finished(NodeId) override {}
};

TEST(ListScheduler, AHookThatRefusesEveryReadyTaskWhileNoneRunsThrows) {
  const Tree t = fork_tree(5);
  RefuseAll hook;
  EXPECT_THROW((void)list_schedule(t, 2, fifo_keys(t), &hook),
               std::logic_error);
}

TEST(PriorityKey, LexicographicOrder) {
  PriorityKey a{1, 2, 3}, b{1, 2, 4}, c{0, 9, 9};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(c < a);
  EXPECT_FALSE(a < a);
}

}  // namespace
}  // namespace treesched
