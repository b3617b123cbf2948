// Golden schedules: a 64-bit digest of every schedule the list-scheduling,
// subtree and memory-capped heuristics emit on a fixed roster of trees,
// processor counts and caps. A digest covers the bit pattern of every
// start time and every processor, so any change to a schedule, however
// small, fails here; a refactor of the algorithms must reproduce them.
//
// On a mismatch the test prints the whole table as it computes it, in
// the source form of kGolden below, so a deliberate change of a
// schedule regenerates its rows from the output.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "algorithm_property.hpp"
#include "campaign/dataset.hpp"
#include "parallel/capped_subtrees.hpp"
#include "parallel/memory_bounded.hpp"
#include "sched/registry.hpp"
#include "trees/generators.hpp"
#include "util/hash.hpp"

namespace treesched {
namespace {

constexpr std::array<int, 5> kProcs = {2, 4, 16, 32, 64};

/// One golden row: `algo` on `tree` under `cap`, at each of kProcs.
struct Golden {
  const char* algo;
  const char* tree;
  /// "-" for the uncapped heuristics; for the capped ones "derived" (no
  /// cap given) or a multiple of the scheduler's own feasibility floor.
  const char* cap;
  std::array<std::uint64_t, kProcs.size()> digest;
};

std::uint64_t schedule_digest(const Schedule& s) {
  std::uint64_t h = s.start.size();
  for (std::size_t i = 0; i < s.start.size(); ++i) {
    h = mix64(h ^ std::bit_cast<std::uint64_t>(s.start[i]));
    h = mix64(h ^ static_cast<std::uint64_t>(s.proc[i]));
  }
  return h;
}

Tree golden_tree(const std::string& label) {
  using testing::Family;
  static const std::map<std::string, std::pair<Family, std::uint64_t>>
      kFamilies = {{"PebbleShallow_s1", {Family::kPebbleShallow, 1}},
                   {"PebbleShallow_s2", {Family::kPebbleShallow, 2}},
                   {"PebbleDeep_s1", {Family::kPebbleDeep, 1}},
                   {"PebbleDeep_s2", {Family::kPebbleDeep, 2}},
                   {"Weighted_s1", {Family::kWeighted, 1}},
                   {"Weighted_s2", {Family::kWeighted, 2}},
                   {"AssemblyLike_s1", {Family::kAssemblyLike, 1}},
                   {"AssemblyLike_s2", {Family::kAssemblyLike, 2}}};
  if (const auto it = kFamilies.find(label); it != kFamilies.end()) {
    return testing::make_family_tree(it->second.first, it->second.second);
  }
  if (label == "fork100") return fork_tree(100);
  if (label == "adversary10x4") return innerfirst_adversary_tree(10, 4);
  return tree_from_spec(label);
}

const std::vector<std::string>& golden_trees() {
  static const std::vector<std::string> kTrees = {
      "PebbleShallow_s1", "PebbleShallow_s2", "PebbleDeep_s1",
      "PebbleDeep_s2",    "Weighted_s1",      "Weighted_s2",
      "AssemblyLike_s1",  "AssemblyLike_s2",  "fork100",
      "adversary10x4",    "synthetic:2000:7", "grid:40:1"};
  return kTrees;
}

/// The cap a row's label names for `algo` on (tree, p); 0 = derived.
MemSize golden_cap(const std::string& algo, const std::string& label,
                   const Tree& t, int p) {
  if (label == "derived" || label == "-") return 0;
  const MemSize floor = algo == "MemoryBounded"
                            ? min_feasible_cap(t)
                            : capped_subtrees_min_cap(t, p);
  if (label == "floor") return floor;
  if (label == "1.5floor") return floor + floor / 2;
  if (label == "2floor") return 2 * floor;
  return 4 * floor;  // "4floor"
}

// clang-format off
const Golden kGolden[] = {
#include "schedule_golden.inc"
};
// clang-format on

TEST(ScheduleGolden, EveryScheduleMatchesItsDigest) {
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      kRoster = {
          {"ParSubtrees", {"-"}},
          {"ParSubtreesOptim", {"-"}},
          {"ParInnerFirst", {"-"}},
          {"ParDeepestFirst", {"-"}},
          {"CappedSubtrees",
           {"derived", "floor", "1.5floor", "2floor", "4floor"}},
          {"MemoryBounded",
           {"derived", "floor", "1.5floor", "2floor", "4floor"}}};
  std::map<std::string, std::array<std::uint64_t, kProcs.size()>> want;
  for (const Golden& g : kGolden) {
    want[std::string(g.algo) + " " + g.tree + " " + g.cap] = g.digest;
  }

  std::string table;
  bool all_match = true;
  for (const std::string& label : golden_trees()) {
    const Tree t = golden_tree(label);
    for (const auto& [algo, caps] : kRoster) {
      const SchedulerPtr sched = SchedulerRegistry::instance().create(algo);
      for (const std::string& cap : caps) {
        const std::string key = algo + " " + label + " " + cap;
        const auto it = want.find(key);
        EXPECT_NE(it, want.end()) << "no golden row for " << key;
        all_match = all_match && it != want.end();
        char row[512];
        int len = std::snprintf(row, sizeof row, "{\"%s\", \"%s\", \"%s\", {",
                                algo.c_str(), label.c_str(), cap.c_str());
        for (std::size_t k = 0; k < kProcs.size(); ++k) {
          const int p = kProcs[k];
          const std::uint64_t got = schedule_digest(sched->schedule(
              t, Resources{p, golden_cap(algo, cap, t, p)}));
          if (it != want.end()) {
            EXPECT_EQ(got, it->second[k]) << key << " p = " << p;
            all_match = all_match && got == it->second[k];
          }
          len += std::snprintf(row + len, sizeof row - len, "%s0x%016llxULL",
                               k == 0 ? "" : ", ",
                               static_cast<unsigned long long>(got));
        }
        table += std::string(row) + "}},\n";
      }
    }
  }
  EXPECT_EQ(want.size(), std::size(kGolden)) << "duplicate golden rows";
  if (!all_match) {
    std::printf("computed golden table:\n%s", table.c_str());
  }
}

}  // namespace
}  // namespace treesched
