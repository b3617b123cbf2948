// Figure 5: ParDeepestFirst's memory is unbounded relative to the optimal
// sequential memory. On the equal-depth-chains tree, M_seq = 3 while
// ParDeepestFirst keeps every chain in flight simultaneously.
//
// Flags: --p (default 4), --len (default 16), --maxchains (default 256).

#include <iostream>

#include "bench_common.hpp"
#include "core/simulator.hpp"
#include "parallel/par_deepest_first.hpp"
#include "sequential/postorder.hpp"
#include "trees/generators.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace treesched;
  CliArgs args(argc, argv);
  const int p = (int)args.get_int("p", 4);
  const int len = (int)args.get_int("len", 16);
  const int maxchains = (int)args.get_int("maxchains", 256);
  args.reject_unknown();

  std::cout << "== Figure 5: ParDeepestFirst memory adversary (p = " << p
            << ", chain length " << len << ") ==\n\n"
            << "  chains   nodes   M_seq   ParDeepestFirst-peak   ratio\n";
  for (int c = 4; c <= maxchains; c *= 2) {
    Tree t = chains_tree(c, len);
    const MemSize mseq = postorder(t).peak;
    const auto sim = simulate(t, par_deepest_first(t, p));
    std::cout << "  " << c << "\t" << t.size() << "\t" << mseq << "\t"
              << sim.peak_memory << "\t\t x"
              << fmt((double)sim.peak_memory / (double)mseq, 1) << "\n";
  }
  std::cout << "\nExpected: M_seq = 3 always; the parallel peak grows with "
               "the number of chains (every chain holds a live file).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return treesched::bench::run_main(argc, argv, bench_main);
}
