// Failure injection: corrupt valid schedules in targeted ways and verify
// that the validator and the simulator catch every corruption. The
// simulator is the experiment scorer, so silent acceptance of a broken
// schedule would invalidate the whole evaluation.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "core/simulator.hpp"
#include "sched/registry.hpp"
#include "test_helpers.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

struct Fixture {
  Tree tree;
  Schedule schedule;
  int p;
};

Fixture make_fixture(std::uint64_t seed) {
  Rng rng(seed);
  RandomTreeParams params;
  params.n = 40 + (NodeId)rng.uniform(60);
  params.min_work = 1.0;
  params.max_work = 5.0;
  params.depth_bias = 1.0;
  Fixture f{random_tree(params, rng), {}, 4};
  f.schedule = SchedulerRegistry::instance().create("ParInnerFirst")
                   ->schedule(f.tree, Resources{f.p, 0});
  return f;
}

// Picks a non-root node (guaranteed to have a parent constraint).
NodeId any_non_root(const Tree& t, Rng& rng) {
  for (;;) {
    const auto i = (NodeId)rng.uniform((std::uint64_t)t.size());
    if (t.parent(i) != kNoNode) return i;
  }
}

TEST(FailureInjection, StartBeforeChildFinishIsCaught) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    Fixture f = make_fixture(100 + trial);
    // Move some parent to start before one of its children finishes.
    const NodeId child = any_non_root(f.tree, rng);
    const NodeId parent = f.tree.parent(child);
    f.schedule.start[parent] =
        f.schedule.start[child] + f.tree.work(child) * 0.25;
    EXPECT_FALSE(validate_schedule(f.tree, f.schedule, f.p).ok);
  }
}

TEST(FailureInjection, SimulatorThrowsOnPrecedenceCorruption) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    Fixture f = make_fixture(200 + trial);
    const NodeId child = any_non_root(f.tree, rng);
    const NodeId parent = f.tree.parent(child);
    // Start the parent strictly before the child even begins.
    f.schedule.start[parent] =
        std::max(0.0, f.schedule.start[child] - 1.0);
    // Either the validator rejects it or (if the child was instantaneous)
    // the simulation throws; both must never silently score it.
    const auto v = validate_schedule(f.tree, f.schedule, f.p);
    if (!v.ok) continue;
    EXPECT_THROW(simulate(f.tree, f.schedule), std::invalid_argument);
  }
}

TEST(FailureInjection, ProcessorOutOfRangeIsCaught) {
  Fixture f = make_fixture(300);
  f.schedule.proc[5] = f.p;  // one past the end
  EXPECT_FALSE(validate_schedule(f.tree, f.schedule, f.p).ok);
  f.schedule.proc[5] = -1;
  EXPECT_FALSE(validate_schedule(f.tree, f.schedule, f.p).ok);
}

TEST(FailureInjection, OverlapOnOneProcessorIsCaught) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    Fixture f = make_fixture(400 + trial);
    // Clone one task's slot onto another task of a different processor.
    const auto a = (NodeId)rng.uniform((std::uint64_t)f.tree.size());
    NodeId b;
    do {
      b = (NodeId)rng.uniform((std::uint64_t)f.tree.size());
    } while (b == a);
    f.schedule.proc[b] = f.schedule.proc[a];
    f.schedule.start[b] = f.schedule.start[a];
    EXPECT_FALSE(validate_schedule(f.tree, f.schedule, f.p).ok);
  }
}

TEST(FailureInjection, NegativeAndNonFiniteStartsAreCaught) {
  Fixture f = make_fixture(500);
  f.schedule.start[3] = -0.5;
  EXPECT_FALSE(validate_schedule(f.tree, f.schedule, f.p).ok);
  f.schedule.start[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(validate_schedule(f.tree, f.schedule, f.p).ok);
  f.schedule.start[3] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(validate_schedule(f.tree, f.schedule, f.p).ok);
}

TEST(FailureInjection, SimulatorRejectsNaNStartsAndFinishes) {
  // NaN has no place in the event order: the replay refuses it outright.
  Fixture f = make_fixture(550);
  f.schedule.start[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(simulate(f.tree, f.schedule), std::invalid_argument);

  // A NaN finish from a finite start: the task's work is NaN (the Tree
  // only refuses negative work).
  const Tree t = testing::make_tree(
      {kNoNode, 0}, {1, 1}, {0, 0},
      {1.0, std::numeric_limits<double>::quiet_NaN()});
  Schedule s(2);
  s.start = {5.0, 0.0};
  try {
    (void)simulate(t, s);
    ADD_FAILURE() << "a NaN finish was replayed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "simulate: task 1 has a NaN finish time");
  }
}

TEST(FailureInjection, NegativeZeroStartTiesPositiveZeroById) {
  // -0.0 and +0.0 are one time, so starts there are taken in id order
  // whichever zero each carries: the first precedence violation the
  // replay meets is always task 0's.
  const Tree t = testing::pebble_tree({kNoNode, 0, 0, 1, 2});
  Schedule s(5);  // every task at time zero: infeasible
  for (double a : {0.0, -0.0}) {
    for (double b : {0.0, -0.0}) {
      s.start = {a, b, b, a, b};
      try {
        (void)simulate(t, s);
        ADD_FAILURE() << "an infeasible schedule was replayed";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("simulate: task 0 starts at ", 0), 0u) << what;
        EXPECT_NE(what.find("but child 1 has not finished"),
                  std::string::npos)
            << what;
      }
    }
  }
}

TEST(FailureInjection, TruncatedScheduleIsCaught) {
  Fixture f = make_fixture(600);
  f.schedule.start.pop_back();
  f.schedule.proc.pop_back();
  EXPECT_FALSE(validate_schedule(f.tree, f.schedule, f.p).ok);
  EXPECT_THROW(simulate(f.tree, f.schedule), std::invalid_argument);
}

TEST(FailureInjection, TooFewProcessorsDeclaredIsCaught) {
  // A valid 4-processor schedule validated against p = 2 must fail
  // whenever it actually uses processors 2 or 3.
  Fixture f = make_fixture(700);
  bool uses_high = false;
  for (NodeId i = 0; i < f.tree.size(); ++i) {
    uses_high |= f.schedule.proc[i] >= 2;
  }
  if (uses_high) {
    EXPECT_FALSE(validate_schedule(f.tree, f.schedule, 2).ok);
  }
}

TEST(FailureInjection, ValidSchedulesSurviveAllChecks) {
  // Control group: uncorrupted schedules pass everything.
  for (int trial = 0; trial < 10; ++trial) {
    Fixture f = make_fixture(800 + trial);
    EXPECT_TRUE(validate_schedule(f.tree, f.schedule, f.p).ok);
    EXPECT_NO_THROW(simulate(f.tree, f.schedule));
  }
}

}  // namespace
}  // namespace treesched
