// Figure 4: ParInnerFirst's memory is unbounded relative to the optimal
// sequential memory. On the spine-with-side-leaves adversary, M_seq = p+1
// while ParInnerFirst accumulates ~(k-1)(p-1) leaf outputs.
//
// Flags: --p (default 4), --maxk (default 512).

#include <iostream>

#include "bench_common.hpp"
#include "core/simulator.hpp"
#include "parallel/par_inner_first.hpp"
#include "sequential/postorder.hpp"
#include "trees/generators.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace treesched;
  CliArgs args(argc, argv);
  const int p = (int)args.get_int("p", 4);
  const int maxk = (int)args.get_int("maxk", 512);
  args.reject_unknown();

  std::cout << "== Figure 4: ParInnerFirst memory adversary (p = " << p
            << ") ==\n\n"
            << "      k    nodes   M_seq   ParInnerFirst-peak   ratio\n";
  for (int k = 4; k <= maxk; k *= 2) {
    Tree t = innerfirst_adversary_tree(k, p);
    const MemSize mseq = postorder(t).peak;
    const auto sim = simulate(t, par_inner_first(t, p));
    std::cout << "  " << k << "\t" << t.size() << "\t" << mseq << "\t"
              << sim.peak_memory << "\t\t x"
              << fmt((double)sim.peak_memory / (double)mseq, 1) << "\n";
  }
  std::cout << "\nExpected: M_seq stays at p + 1 = " << p + 1
            << " while the parallel peak grows ~ (k-1)(p-1): the ratio is "
               "unbounded in k.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return treesched::bench::run_main(argc, argv, bench_main);
}
