#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include "sched/validate.hpp"
#include "test_helpers.hpp"

namespace treesched {
namespace {

using testing::pebble_tree;

TEST(Schedule, MakespanAndFinish) {
  Tree t = pebble_tree({kNoNode, 0, 0});
  Schedule s(3);
  s.start = {2.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(s.finish(t, 0), 3.0);
  EXPECT_DOUBLE_EQ(s.makespan(t), 3.0);
}

TEST(Schedule, ByStartTimeOrder) {
  Schedule s(3);
  s.start = {2.0, 0.0, 1.0};
  EXPECT_EQ(s.by_start_time(), (std::vector<NodeId>{1, 2, 0}));
}

TEST(Schedule, SequentialScheduleLaysOutInOrder) {
  Tree t = pebble_tree({kNoNode, 0, 0});
  Schedule s = sequential_schedule(t, {2, 1, 0});
  EXPECT_DOUBLE_EQ(s.start[2], 0.0);
  EXPECT_DOUBLE_EQ(s.start[1], 1.0);
  EXPECT_DOUBLE_EQ(s.start[0], 2.0);
  EXPECT_TRUE(validate_schedule(t, s, 1).ok);
}

TEST(Validate, AcceptsValidParallelSchedule) {
  Tree t = pebble_tree({kNoNode, 0, 0});
  Schedule s(3);
  s.start = {1.0, 0.0, 0.0};
  s.proc = {0, 0, 1};
  EXPECT_TRUE(validate_schedule(t, s, 2).ok);
}

TEST(Validate, RejectsPrecedenceViolation) {
  Tree t = pebble_tree({kNoNode, 0});
  Schedule s(2);
  s.start = {0.5, 0.0};
  s.proc = {1, 0};
  auto v = validate_schedule(t, s, 2);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("before child"), std::string::npos);
}

TEST(Validate, RejectsProcessorOverlap) {
  Tree t = pebble_tree({kNoNode, 0, 0});
  Schedule s(3);
  s.start = {2.0, 0.5, 0.0};
  s.proc = {0, 1, 1};  // tasks 1 and 2 overlap on proc 1
  auto v = validate_schedule(t, s, 2);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("overlap"), std::string::npos);
}

TEST(Validate, RejectsProcessorOutOfRange) {
  Tree t = pebble_tree({kNoNode});
  Schedule s(1);
  s.proc = {3};
  EXPECT_FALSE(validate_schedule(t, s, 2).ok);
}

TEST(Validate, RejectsNegativeStart) {
  Tree t = pebble_tree({kNoNode});
  Schedule s(1);
  s.start = {-1.0};
  EXPECT_FALSE(validate_schedule(t, s, 1).ok);
}

TEST(Validate, RejectsSizeMismatch) {
  Tree t = pebble_tree({kNoNode, 0});
  Schedule s(1);
  EXPECT_FALSE(validate_schedule(t, s, 1).ok);
}

TEST(Validate, BackToBackOnSameProcessorIsOk) {
  Tree t = pebble_tree({kNoNode, 0, 0});
  Schedule s(3);
  s.start = {2.0, 0.0, 1.0};
  s.proc = {0, 0, 0};
  EXPECT_TRUE(validate_schedule(t, s, 1).ok);
}

TEST(Validate, AcceptsAZeroWorkTaskBetweenItsChildAndItsParent) {
  // The chain 2 -> 1 -> 0 on one processor, task 1 of zero work: it
  // starts and ends at t = 1, where its parent 0 starts. Sorted by start
  // alone, 0 may land ahead of 1 and read as an overlap.
  Tree t = testing::make_tree({kNoNode, 0, 1}, {1, 1, 1}, {0, 0, 0},
                              {1.0, 0.0, 1.0});
  Schedule s(3);
  s.start = {1.0, 1.0, 0.0};
  s.proc = {0, 0, 0};
  const ValidationResult v = validate_schedule(t, s, 1);
  EXPECT_TRUE(v.ok) << v.error;
  const ScheduleCheck check = check_schedule(t, s, 1);
  EXPECT_TRUE(check.ok) << check.error;
  // At most every output at once: whatever order simulate() gives the
  // zero-length task, the peak stays within the three outputs.
  EXPECT_LE(check.peak_memory, 3u);
  EXPECT_DOUBLE_EQ(check.makespan, 2.0);
}

TEST(Validate, CountsZeroLengthTasksAsRunning) {
  // A root with two leaves, every task of zero work, all at t = 0 on two
  // processors: one task runs at a time, never none.
  const Tree zero = testing::make_tree({kNoNode, 0, 0}, {1, 1, 1}, {1, 1, 1},
                                       {0.0, 0.0, 0.0});
  Schedule s(3);
  s.start = {0.0, 0.0, 0.0};
  s.proc = {0, 0, 1};
  ScheduleCheck check = check_schedule(zero, s, 2);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.max_concurrency, 1);

  // A zero-length leaf at t = 2 runs beside its sibling on [0, 4).
  const Tree mixed = testing::make_tree({kNoNode, 0, 0}, {1, 1, 1}, {1, 1, 1},
                                        {1.0, 4.0, 0.0});
  s.start = {4.0, 0.0, 2.0};
  s.proc = {0, 0, 1};
  check = check_schedule(mixed, s, 2);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.max_concurrency, 2);
}

}  // namespace
}  // namespace treesched
