// Differential tests: the library's simulate(), split_subtrees() and
// par_subtrees() against the reference implementations kept in
// reference_impl.hpp. Every result must agree bit for bit — makespans,
// start times and predicted costs compared by their bit patterns, the
// recorded memory profile step by step, and a rejected schedule with the
// same error message.
//
// The corpus leans on the cases where an ordering shortcut would show:
// equal-W siblings that tie on (W, w) and split by node id, zero-work
// nodes, forks wider than p, chains, and schedules whose starts and
// finishes tie exactly or within the simulator's tolerance.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/dataset.hpp"
#include "core/simulator.hpp"
#include "parallel/par_subtrees.hpp"
#include "reference_impl.hpp"
#include "sched/registry.hpp"
#include "test_helpers.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

struct NamedTree {
  std::string name;
  Tree tree;
};

Tree family_tree(int family, std::uint64_t seed) {
  // The property roster's four families (tests/test_properties.cpp).
  Rng rng(seed);
  RandomTreeParams params;
  params.n = 60 + static_cast<NodeId>(rng.uniform(120));
  switch (family) {
    case 0:  // pebble, shallow
      break;
    case 1:  // pebble, deep
      params.depth_bias = 5.0;
      break;
    case 2:  // weighted
      params.max_output = 50;
      params.max_exec = 20;
      params.min_work = 1.0;
      params.max_work = 40.0;
      params.depth_bias = 1.0;
      break;
    default:  // assembly-like
      params.max_output = 400;
      params.max_exec = 100;
      params.min_work = 1.0;
      params.max_work = 1000.0;
      params.depth_bias = 2.0;
      break;
  }
  return random_tree(params, rng);
}

/// Complete k-ary tree of `levels` levels with unit weights: every node's
/// siblings have the same W and w, so only the node id orders them.
Tree complete_tree(int arity, int levels) {
  std::vector<NodeId> parent{kNoNode};
  std::size_t level_begin = 0;
  for (int l = 1; l < levels; ++l) {
    const std::size_t level_end = parent.size();
    for (std::size_t v = level_begin; v < level_end; ++v) {
      for (int c = 0; c < arity; ++c) parent.push_back(static_cast<NodeId>(v));
    }
    level_begin = level_end;
  }
  return testing::pebble_tree(std::move(parent));
}

/// Copy of `t` with the work of every `stride`-th node set to zero.
Tree zero_some_work(const Tree& t, int stride) {
  std::vector<NodeId> parent(t.size());
  std::vector<MemSize> out(t.size()), exec(t.size());
  std::vector<double> work(t.size());
  for (NodeId i = 0; i < t.size(); ++i) {
    parent[i] = t.parent(i);
    out[i] = t.output_size(i);
    exec[i] = t.exec_size(i);
    work[i] = i % stride == 0 ? 0.0 : t.work(i);
  }
  return Tree(std::move(parent), std::move(out), std::move(exec),
              std::move(work));
}

/// Root 0 with four children whose subtrees all have W = 4: 1 is a leaf
/// of work 4; 2 and 3 (w 1 each, so they tie on W and w) each have one
/// child of work 3; 4 (w 2) has two leaf children of work 1.
Tree equal_w_tree() {
  return testing::make_tree({kNoNode, 0, 0, 0, 0, 2, 3, 4, 4},
                            {1, 2, 3, 4, 5, 6, 7, 8, 9},
                            {0, 1, 0, 1, 0, 1, 0, 1, 0},
                            {1.0, 4.0, 1.0, 1.0, 2.0, 3.0, 3.0, 1.0, 1.0});
}

/// Two subtrees that tie on (W, w) but enter the PQ at different steps,
/// the later one with the smaller id: 4 (under 1) is queued before 3
/// (under 2), and the id tie-break must still split 3 first.
Tree cousin_tie_tree() {
  std::vector<NodeId> parent{kNoNode, 0, 0, 2, 1};
  std::vector<double> work{1.0, 5.0, 1.0, 1.0, 1.0};
  for (NodeId under : {3, 4}) {
    for (int k = 0; k < 8; ++k) {
      parent.push_back(under);
      work.push_back(1.0);
    }
  }
  const std::size_t n = parent.size();
  return testing::make_tree(std::move(parent), std::vector<MemSize>(n, 1),
                            std::vector<MemSize>(n, 0), std::move(work));
}

const std::vector<NamedTree>& corpus() {
  static const std::vector<NamedTree> trees = [] {
    std::vector<NamedTree> out;
    const char* families[] = {"PebbleShallow", "PebbleDeep", "Weighted",
                              "AssemblyLike"};
    for (int f = 0; f < 4; ++f) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        out.push_back({std::string(families[f]) + "/" + std::to_string(seed),
                       family_tree(f, seed)});
      }
    }
    for (const char* spec : {"grid:6:1", "grid:9:2", "synthetic:150:1",
                             "synthetic:400:3"}) {
      out.push_back({spec, tree_from_spec(spec)});
    }
    out.push_back({"fork1", fork_tree(1)});
    out.push_back({"fork7", fork_tree(7)});
    out.push_back({"fork70", fork_tree(70)});
    out.push_back({"single", testing::pebble_tree({kNoNode})});
    {
      std::vector<NodeId> chain{kNoNode};
      for (NodeId i = 1; i < 40; ++i) chain.push_back(i - 1);
      out.push_back({"chain40", testing::pebble_tree(chain)});
    }
    out.push_back({"chains4x6", chains_tree(4, 6)});
    out.push_back({"binary6", complete_tree(2, 6)});
    out.push_back({"ternary4", complete_tree(3, 4)});
    out.push_back({"equalW", equal_w_tree()});
    out.push_back({"cousinTie", cousin_tie_tree()});
    out.push_back({"zero3/Weighted", zero_some_work(family_tree(2, 4), 3)});
    out.push_back({"zero2/Assembly", zero_some_work(family_tree(3, 5), 2)});
    out.push_back({"zeroall/binary", zero_some_work(complete_tree(2, 5), 1)});
    return out;
  }();
  return trees;
}

std::vector<int> procs_for(const Tree& t) {
  return {1, 2, 3, 7, 16, 32, 64, t.size(), t.size() + 5};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult same_schedule(const Schedule& got,
                                         const Schedule& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "sizes differ";
  }
  for (NodeId i = 0; i < got.size(); ++i) {
    if (!same_bits(got.start[i], want.start[i]) ||
        got.proc[i] != want.proc[i]) {
      return ::testing::AssertionFailure()
             << "task " << i << ": (" << got.start[i] << ", p" << got.proc[i]
             << ") vs reference (" << want.start[i] << ", p" << want.proc[i]
             << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_split(const SplitResult& got,
                                      const SplitResult& want) {
  if (got.subtree_roots != want.subtree_roots) {
    return ::testing::AssertionFailure() << "subtree_roots differ";
  }
  if (got.seq_nodes != want.seq_nodes) {
    return ::testing::AssertionFailure() << "seq_nodes differ";
  }
  if (!same_bits(got.predicted_makespan, want.predicted_makespan)) {
    return ::testing::AssertionFailure()
           << "predicted_makespan " << got.predicted_makespan
           << " vs reference " << want.predicted_makespan;
  }
  return ::testing::AssertionSuccess();
}

/// simulate() outcome: the result, or the message it threw.
struct Replay {
  std::optional<SimulationResult> result;
  std::string error;
};

using SimulateFn = SimulationResult (*)(const Tree&, const Schedule&,
                                        const SimulationOptions&);

Replay replay(SimulateFn sim, const Tree& t, const Schedule& s) {
  Replay r;
  SimulationOptions opts;
  opts.record_profile = true;
  try {
    r.result = sim(t, s, opts);
  } catch (const std::invalid_argument& e) {
    r.error = e.what();
  }
  return r;
}

::testing::AssertionResult same_replay(const Tree& t, const Schedule& s) {
  const Replay got = replay(&simulate, t, s);
  const Replay want = replay(&reference::simulate, t, s);
  if (got.error != want.error) {
    return ::testing::AssertionFailure()
           << "error \"" << got.error << "\" vs reference \"" << want.error
           << "\"";
  }
  if (!got.result) return ::testing::AssertionSuccess();
  const SimulationResult& a = *got.result;
  const SimulationResult& b = *want.result;
  if (!same_bits(a.makespan, b.makespan) || a.peak_memory != b.peak_memory ||
      a.final_memory != b.final_memory) {
    return ::testing::AssertionFailure()
           << "(makespan, peak, final) = (" << a.makespan << ", "
           << a.peak_memory << ", " << a.final_memory << ") vs reference ("
           << b.makespan << ", " << b.peak_memory << ", " << b.final_memory
           << ")";
  }
  if (a.profile.size() != b.profile.size()) {
    return ::testing::AssertionFailure()
           << "profile has " << a.profile.size() << " steps vs reference "
           << b.profile.size();
  }
  for (std::size_t k = 0; k < a.profile.size(); ++k) {
    if (!same_bits(a.profile[k].time, b.profile[k].time) ||
        a.profile[k].mem != b.profile[k].mem) {
      return ::testing::AssertionFailure() << "profile step " << k << " differs";
    }
  }
  // Without a profile the replay must give the same scores too.
  const SimulationResult bare = simulate(t, s);
  if (!same_bits(bare.makespan, a.makespan) ||
      bare.peak_memory != a.peak_memory || !bare.profile.empty()) {
    return ::testing::AssertionFailure() << "profile-free replay differs";
  }
  return ::testing::AssertionSuccess();
}

/// Every registered scheduler's schedules of `t` at a few p. A scheduler
/// that refuses the tree is left out: on trees of zero-work tasks the
/// replay's memory can wrap below zero (a finish at time t is applied
/// before a zero-work start at t), so the capped schedulers' own audits
/// may reject what they built. Both replays share that accounting.
std::vector<std::pair<std::string, Schedule>> roster_schedules(const Tree& t) {
  std::vector<std::pair<std::string, Schedule>> out;
  const SchedulerRegistry& reg = SchedulerRegistry::instance();
  for (const std::string& name : reg.names()) {
    const SchedulerPtr sched = reg.create(name);
    const SchedulerCapabilities caps = sched->capabilities();
    if (caps.is_oracle() && t.size() > caps.max_nodes) continue;
    for (int p : {1, 3, 16}) {
      if (caps.sequential_only && p != 1) continue;
      try {
        out.emplace_back(name + "/p" + std::to_string(p),
                         sched->schedule(t, Resources{p, 0}));
      } catch (const std::invalid_argument&) {
      }
    }
  }
  return out;
}

// Perturbations that put events on or near each other.

/// Every start rounded to a multiple of `step`: many exact ties between
/// starts, between finishes, and between a finish and a start (the
/// result may be infeasible; both replays must then reject it alike).
Schedule snapped(const Tree& t, const Schedule& s, double step) {
  Schedule out = s;
  for (NodeId i = 0; i < t.size(); ++i) {
    out.start[i] = std::round(s.start[i] / step) * step;
  }
  return out;
}

/// Starts nudged up or down by at most 1e-10 of max(1, start): finishes
/// and starts that were equal now differ, inside the 1e-9 tolerance.
Schedule jittered(const Tree& t, const Schedule& s, std::uint64_t seed) {
  Rng rng(seed);
  Schedule out = s;
  for (NodeId i = 0; i < t.size(); ++i) {
    const double scale = std::max(1.0, s.start[i]);
    const double delta =
        scale * 1e-10 * (static_cast<double>(rng.uniform(21)) - 10.0) / 10.0;
    out.start[i] = s.start[i] + delta;
  }
  return out;
}

/// All zero starts flipped to -0.0 on odd ids: the zeros must still tie.
Schedule negative_zeros(const Tree& t, const Schedule& s) {
  Schedule out = s;
  for (NodeId i = 0; i < t.size(); ++i) {
    if (out.start[i] == 0.0 && i % 2 == 1) out.start[i] = -0.0;
  }
  return out;
}

/// Every parent started one unit early: a precedence violation whose
/// message names the first offending start in event order.
Schedule parents_early(const Tree& t, const Schedule& s) {
  Schedule out = s;
  for (NodeId i = 0; i < t.size(); ++i) {
    if (!t.is_leaf(i)) out.start[i] = std::max(0.0, s.start[i] - 1.0);
  }
  return out;
}

TEST(Differential, SplitSubtreesMatchesTheReference) {
  int cases = 0;
  for (const NamedTree& nt : corpus()) {
    for (int p : procs_for(nt.tree)) {
      EXPECT_TRUE(same_split(split_subtrees(nt.tree, p),
                             reference::split_subtrees(nt.tree, p)))
          << nt.name << " p=" << p;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 9 * static_cast<int>(corpus().size()));
}

TEST(Differential, ParSubtreesMatchesTheReferenceForEveryTraversalAndPacking) {
  int cases = 0;
  for (const NamedTree& nt : corpus()) {
    for (int p : procs_for(nt.tree)) {
      for (SequentialAlgo seq :
           {SequentialAlgo::kOptimalPostorder, SequentialAlgo::kLiuExact,
            SequentialAlgo::kNaturalPostorder}) {
        for (bool packed : {false, true}) {
          ParSubtreesOptions opts;
          opts.sequential = seq;
          opts.optimized_packing = packed;
          EXPECT_TRUE(same_schedule(par_subtrees(nt.tree, p, opts),
                                    reference::par_subtrees(nt.tree, p, opts)))
              << nt.name << " p=" << p << " seq=" << static_cast<int>(seq)
              << " packed=" << packed;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 54 * static_cast<int>(corpus().size()));
}

TEST(Differential, SimulateMatchesTheReferenceOnEveryRosterSchedule) {
  int cases = 0;
  for (const NamedTree& nt : corpus()) {
    for (const auto& [label, s] : roster_schedules(nt.tree)) {
      EXPECT_TRUE(same_replay(nt.tree, s)) << nt.name << " " << label;
      ++cases;
    }
  }
  EXPECT_GT(cases, 500);
}

TEST(Differential, SimulateMatchesTheReferenceOnTiedAndPerturbedSchedules) {
  int cases = 0;
  int rejected = 0;
  for (const NamedTree& nt : corpus()) {
    std::uint64_t seed = 1;
    for (const auto& [label, s] : roster_schedules(nt.tree)) {
      const Schedule variants[] = {
          snapped(nt.tree, s, 1.0),   snapped(nt.tree, s, 16.0),
          jittered(nt.tree, s, seed), negative_zeros(nt.tree, s),
          parents_early(nt.tree, s),
      };
      ++seed;
      for (const Schedule& v : variants) {
        EXPECT_TRUE(same_replay(nt.tree, v)) << nt.name << " " << label;
        ++cases;
        try {
          (void)reference::simulate(nt.tree, v);
        } catch (const std::invalid_argument&) {
          ++rejected;
        }
      }
    }
  }
  EXPECT_GT(cases, 2500);
  // Both sides of the precedence check are exercised.
  EXPECT_GT(rejected, cases / 10);
  EXPECT_LT(rejected, cases);
}

}  // namespace
}  // namespace treesched
