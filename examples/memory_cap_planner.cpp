// Memory-cap planner: given a machine memory budget, find the fastest
// schedule that fits. Demonstrates the memory-bounded extension on a
// multifrontal workload: sweeps the cap, prints the trade-off curve, and
// recommends the smallest cap within 10% of the unbounded makespan.
//
//   $ ./examples/memory_cap_planner [--nx 40] [--p 8]

#include <iostream>
#include <vector>

#include "core/lower_bounds.hpp"
#include "core/simulator.hpp"
#include "parallel/memory_bounded.hpp"
#include "parallel/par_deepest_first.hpp"
#include "spmatrix/amalgamation.hpp"
#include "spmatrix/assembly.hpp"
#include "spmatrix/ordering.hpp"
#include "spmatrix/sparse.hpp"
#include "spmatrix/symbolic.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace treesched;
  CliArgs args(argc, argv);
  const int nx = (int)args.get_int("nx", 40);
  const int p = (int)args.get_int("p", 8);
  args.reject_unknown();

  const SparsePattern a = grid2d_pattern(nx, nx);
  const Tree tree = assembly_to_task_tree(
      amalgamate(symbolic_cholesky(a, nested_dissection_2d(nx, nx)), 4));
  std::cout << "== memory-cap planning for a " << nx << "x" << nx
            << " grid factorization on p = " << p << " ==\n"
            << "tree: " << tree.describe() << "\n\n";

  const MemSize floor_cap = min_feasible_cap(tree);
  const auto unbounded = simulate(tree, par_deepest_first(tree, p));
  const double lb = makespan_lower_bound(tree, p);
  std::cout << "cap floor (sequential postorder):  " << floor_cap << "\n"
            << "unbounded schedule: makespan x" << fmt(unbounded.makespan / lb, 3)
            << " LB, memory x"
            << fmt((double)unbounded.peak_memory / (double)floor_cap, 2)
            << " floor\n\n"
            << "   budget(xfloor)   makespan(xLB)   used-mem(xfloor)\n";

  struct Point {
    double factor;
    double makespan;
    MemSize mem;
  };
  std::vector<Point> curve;
  for (double f : {1.0, 1.2, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0}) {
    const auto cap = (MemSize)((double)floor_cap * f);
    auto r = memory_bounded_schedule(tree, p, cap);
    if (!r) continue;
    const auto sim = simulate(tree, *r);
    curve.push_back({f, sim.makespan, sim.peak_memory});
    std::cout << "   x" << fmt(f, 2) << "\t     " << fmt(sim.makespan / lb, 3)
              << "\t     x"
              << fmt((double)sim.peak_memory / (double)floor_cap, 2) << "\n";
  }

  // Recommendation: the smallest budget within 10% of the unbounded run.
  for (const Point& pt : curve) {
    if (pt.makespan <= 1.10 * unbounded.makespan) {
      std::cout << "\nrecommendation: a budget of x" << fmt(pt.factor, 2)
                << " the sequential optimum already achieves "
                << fmt(100.0 * unbounded.makespan / pt.makespan, 1)
                << "% of the unbounded speed.\n";
      break;
    }
  }
  return 0;
}
