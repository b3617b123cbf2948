#include "core/simulator.hpp"

#include <gtest/gtest.h>

#include "core/schedule.hpp"
#include "sequential/postorder.hpp"
#include "test_helpers.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

using testing::example_tree;
using testing::make_tree;
using testing::pebble_tree;

TEST(Simulator, SingleTask) {
  Tree t = make_tree({kNoNode}, {5}, {3}, {2.0});
  Schedule s(1);
  auto r = simulate(t, s);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
  EXPECT_EQ(r.peak_memory, 8u);  // n + f
  EXPECT_EQ(r.final_memory, 5u);
}

TEST(Simulator, SequentialChain) {
  // chain 2 -> 1 -> 0; pebble weights.
  Tree t = pebble_tree({kNoNode, 0, 1});
  Schedule s = sequential_schedule(t, {2, 1, 0});
  auto r = simulate(t, s);
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
  // Processing node 1: child file (1) + own output (1) = 2.
  EXPECT_EQ(r.peak_memory, 2u);
  EXPECT_EQ(r.final_memory, 1u);
}

TEST(Simulator, ForkSequentialVsParallelMemory) {
  Tree t = fork_tree(4);  // root + 4 leaves
  // Sequential: leaves one at a time -> peak at root: 4 inputs + 1 output.
  Schedule seq = sequential_schedule(t, {1, 2, 3, 4, 0});
  EXPECT_EQ(simulate(t, seq).peak_memory, 5u);
  // All leaves in parallel at t=0 on 4 procs: same peak here (leaves
  // allocate 4 once, root adds 1 after they finish).
  Schedule par(5);
  for (NodeId i = 1; i <= 4; ++i) {
    par.start[i] = 0.0;
    par.proc[i] = (int)i - 1;
  }
  par.start[0] = 1.0;
  par.proc[0] = 0;
  auto r = simulate(t, par);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
  EXPECT_EQ(r.peak_memory, 5u);
}

TEST(Simulator, ParallelPeakCountsConcurrentExecFiles) {
  // Two independent leaves with big exec files under a root.
  Tree t = make_tree({kNoNode, 0, 0}, {1, 1, 1}, {0, 10, 10},
                     {1.0, 1.0, 1.0});
  // Sequential: first leaf peaks at 11; the second runs with the first's
  // output resident: 1 + 11 = 12.
  Schedule seq = sequential_schedule(t, {1, 2, 0});
  EXPECT_EQ(simulate(t, seq).peak_memory, 12u);
  // Parallel: both leaves together: 22.
  Schedule par(3);
  par.start = {1.0, 0.0, 0.0};
  par.proc = {0, 0, 1};
  EXPECT_EQ(simulate(t, par).peak_memory, 22u);
}

TEST(Simulator, ThrowsOnPrecedenceViolation) {
  Tree t = pebble_tree({kNoNode, 0});
  Schedule s(2);
  s.start = {0.0, 0.0};  // root together with its child
  s.proc = {0, 1};
  EXPECT_THROW(simulate(t, s), std::invalid_argument);
}

TEST(Simulator, ThrowsOnSizeMismatch) {
  Tree t = pebble_tree({kNoNode, 0});
  Schedule s(1);
  EXPECT_THROW(simulate(t, s), std::invalid_argument);
}

TEST(Simulator, ProfileIsRecorded) {
  Tree t = pebble_tree({kNoNode, 0});
  Schedule s = sequential_schedule(t, {1, 0});
  SimulationOptions opts;
  opts.record_profile = true;
  auto r = simulate(t, s, opts);
  ASSERT_FALSE(r.profile.empty());
  MemSize maxmem = 0;
  for (const auto& ev : r.profile) maxmem = std::max(maxmem, ev.mem);
  EXPECT_EQ(maxmem, r.peak_memory);
  for (std::size_t k = 1; k < r.profile.size(); ++k) {
    EXPECT_GE(r.profile[k].time, r.profile[k - 1].time);
  }
}

TEST(Simulator, FastSequentialPathMatchesEventSimulator) {
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(60);
    params.max_output = 9;
    params.max_exec = 5;
    Tree t = random_tree(params, rng);
    auto order = postorder(t).order;
    Schedule s = sequential_schedule(t, order);
    EXPECT_EQ(simulate(t, s).peak_memory, sequential_peak_memory(t, order));
  }
}

TEST(Simulator, PostorderPeakMatchesReportedPeak) {
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    RandomTreeParams params;
    params.n = 2 + (NodeId)rng.uniform(80);
    params.max_output = 7;
    params.max_exec = 4;
    Tree t = random_tree(params, rng);
    auto po = postorder(t);
    EXPECT_EQ(sequential_peak_memory(t, po.order), po.peak);
  }
}

TEST(Simulator, FinalMemoryIsRootOutput) {
  Rng rng(5);
  RandomTreeParams params;
  params.n = 30;
  params.max_output = 5;
  Tree t = random_tree(params, rng);
  Schedule s = sequential_schedule(t, postorder(t).order);
  EXPECT_EQ(simulate(t, s).final_memory, t.output_size(t.root()));
}

TEST(Simulator, TaskStartingExactlyAtChildFinishIsAccepted) {
  Tree t = pebble_tree({kNoNode, 0});
  Schedule s(2);
  s.start = {1.0, 0.0};
  s.proc = {0, 0};
  EXPECT_NO_THROW(simulate(t, s));
}

TEST(Simulator, CountsTheTasksRunningAtOnce) {
  // Three leaves on [0, 1) at once, then their parent: 3 at once.
  Tree fork = pebble_tree({kNoNode, 0, 0, 0});
  Schedule s(4);
  s.start = {1.0, 0.0, 0.0, 0.0};
  s.proc = {0, 0, 1, 2};
  EXPECT_EQ(simulate(fork, s).max_concurrency, 3);
  // Back to back, a finish applies before the start at its instant.
  s = sequential_schedule(fork, {1, 2, 3, 0});
  EXPECT_EQ(simulate(fork, s).max_concurrency, 1);
}

}  // namespace
}  // namespace treesched
