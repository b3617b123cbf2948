// Extension A3 (the paper's stated future work): memory-capped scheduling.
// Sweeps the cap from the sequential optimum to infinity and reports the
// makespan achieved at each point -- the memory/makespan trade-off curve
// that none of the paper's heuristics can expose.
//
// Flags: --scale, --seed, --p (default 8), --tree (index into the dataset,
//        default: a representative mid-sized tree).

#include <iostream>

#include "bench_common.hpp"
#include "core/lower_bounds.hpp"
#include "core/simulator.hpp"
#include "parallel/capped_subtrees.hpp"
#include "parallel/memory_bounded.hpp"
#include "parallel/par_deepest_first.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace treesched;
  CliArgs args(argc, argv);
  auto setup = bench::make_campaign(args);
  const int p = (int)args.get_int("p", 8);
  const auto tree_idx = args.get_int("tree", -1);
  args.reject_unknown();

  // Pick a mid-sized instance by default (the banker audit is O(n) per
  // admission, so huge trees make the sweep slow without adding insight).
  std::size_t idx;
  if (tree_idx >= 0) {
    idx = (std::size_t)tree_idx % setup.dataset.size();
  } else {
    idx = 0;
    auto score = [](NodeId n) {
      const double d = (double)n - 3000.0;
      return d * d;
    };
    for (std::size_t i = 0; i < setup.dataset.size(); ++i) {
      if (score(setup.dataset[i].tree.size()) <
          score(setup.dataset[idx].tree.size())) {
        idx = i;
      }
    }
  }
  const Tree& tree = setup.dataset[idx].tree;
  std::cout << "== Memory-bounded scheduling trade-off ==\n"
            << "tree: " << setup.dataset[idx].name << " ("
            << tree.describe() << ")\np = " << p << "\n\n";

  const MemSize floor_cap = min_feasible_cap(tree);
  const double lb_ms = makespan_lower_bound(tree, p);
  const auto unbounded = simulate(tree, par_deepest_first(tree, p));
  std::cout << "sequential-optimal postorder memory (cap floor): "
            << floor_cap << "\n"
            << "unbounded ParDeepestFirst: makespan "
            << fmt(unbounded.makespan / lb_ms, 3) << "x LB, memory x"
            << fmt((double)unbounded.peak_memory / (double)floor_cap, 2)
            << "\n\n"
            << "   cap/Mseq   banker ms/LB  (peak ok)   static-subtrees "
               "ms/LB  (peak ok)\n";

  const MemSize static_floor = capped_subtrees_min_cap(tree, p);
  for (double factor : {1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 16.0}) {
    const auto cap = (MemSize)((double)floor_cap * factor);
    std::cout << "  x" << fmt(factor, 2) << "\t";
    auto banker = memory_bounded_schedule(tree, p, cap);
    if (!banker) {
      std::cout << "  infeasible";
    } else {
      const auto sim = simulate(tree, *banker);
      std::cout << "  " << fmt(sim.makespan / lb_ms, 3) << "  ("
                << (sim.peak_memory <= cap ? "yes" : "NO: BUG") << ")";
    }
    auto stat = capped_subtrees_schedule(tree, p, cap);
    if (!stat) {
      std::cout << "\t\tinfeasible (static floor x"
                << fmt((double)static_floor / (double)floor_cap, 2) << ")";
    } else {
      const auto sim = simulate(tree, stat->schedule);
      std::cout << "\t\t" << fmt(sim.makespan / lb_ms, 3) << "  ("
                << (sim.peak_memory <= cap ? "yes" : "NO: BUG")
                << ", par " << stat->max_parallelism << ")";
    }
    std::cout << "\n";
  }
  std::cout << "\nExpected: both schedulers respect the cap everywhere; "
               "makespan decreases as the cap loosens. The dynamic banker "
               "dominates the static subtree-reservation scheme, which "
               "needs a larger floor (x"
            << fmt((double)static_floor / (double)floor_cap, 2)
            << " here) and loses parallelism at tight caps -- the price "
               "of an O(1) admission test.\n";
  return 0;
}
