// Figure 1 / Theorem 1: the NP-completeness reduction from 3-Partition.
// For YES instances, replays the proof's constructive schedule and checks
// it meets B_Cmax = 2m+1 and B_mem = 3mB + 3m exactly; then shows how the
// paper's heuristics behave on the same gadget (none is guaranteed to meet
// both bounds -- that is the point of the hardness proof).
//
// Flags: --m (number of groups, default 3), --B (target sum, default 12).

#include <array>
#include <iostream>

#include "bench_common.hpp"
#include "core/simulator.hpp"
#include "sched/registry.hpp"
#include "trees/generators.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace treesched;
  CliArgs args(argc, argv);
  const auto m = args.get_int("m", 3);
  const auto B = args.get_int("B", 12);
  args.reject_unknown();
  if (m < 1 || B < 12 || B % 4 != 0) {
    std::cerr << "need --m >= 1 and --B >= 12 divisible by 4\n";
    return 1;
  }

  // Build a YES instance: m groups, each {B/4+1, B/4+1, B/2-2}
  // (these obey the 3-Partition constraint B/4 < a_i < B/2 for B >= 12).
  ThreePartitionInstance inst;
  inst.B = B;
  std::vector<std::array<int, 3>> groups;
  for (std::int64_t g = 0; g < m; ++g) {
    const int base = (int)(3 * g);
    inst.a.push_back(B / 4 + 1);
    inst.a.push_back(B / 4 + 1);
    inst.a.push_back(B - 2 * (B / 4 + 1));
    groups.push_back({base, base + 1, base + 2});
  }
  Tree tree = threepartition_gadget(inst);
  const auto bounds = threepartition_bounds(inst);

  std::cout << "== Figure 1 / Theorem 1: 3-Partition gadget ==\n"
            << tree.describe() << "\n"
            << "m=" << m << " B=" << B << " p=" << bounds.processors
            << "  B_Cmax=" << bounds.makespan_bound
            << "  B_mem=" << bounds.memory_bound << "\n\n";

  Schedule proof = threepartition_schedule(tree, inst, groups);
  auto v = validate_schedule(tree, proof, bounds.processors);
  auto sim = simulate(tree, proof);
  std::cout << "proof schedule: valid=" << (v.ok ? "yes" : "no")
            << " makespan=" << sim.makespan << " (bound "
            << bounds.makespan_bound << ")"
            << " peak=" << sim.peak_memory << " (bound "
            << bounds.memory_bound << ")\n\n";

  std::cout << "parallel algorithms on the gadget (p = " << bounds.processors
            << "):\n";
  for (const std::string& name : parallel_campaign_algorithms()) {
    Schedule s = SchedulerRegistry::instance().create(name)->schedule(
        tree, Resources{bounds.processors, 0});
    auto hs = simulate(tree, s);
    std::cout << "  " << name << ": makespan=" << hs.makespan
              << " (" << fmt(hs.makespan / bounds.makespan_bound, 2)
              << "x bound), peak=" << hs.peak_memory << " ("
              << fmt((double)hs.peak_memory / (double)bounds.memory_bound, 2)
              << "x bound)\n";
  }
  std::cout << "\nExpected: the constructive schedule meets both bounds "
               "exactly; generic heuristics miss at least one of them on "
               "nontrivial instances.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return treesched::bench::run_main(argc, argv, bench_main);
}
