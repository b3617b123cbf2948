// Figure 2 / Theorem 2: no algorithm approximates both makespan and memory
// within constant factors. Replays the proof's memory-optimal sequential
// schedule (peak exactly n + delta) and shows that makespan-driven
// schedules (ParDeepestFirst with many processors) have memory that grows
// without bound relative to it while staying near the optimal makespan
// (critical path delta + 2).
//
// Flags: --delta (default 6), --maxn (default 64).

#include <iostream>

#include "bench_common.hpp"
#include "core/simulator.hpp"
#include "parallel/par_deepest_first.hpp"
#include "sequential/liu.hpp"
#include "trees/generators.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace treesched;
  CliArgs args(argc, argv);
  const int delta = (int)args.get_int("delta", 6);
  const int maxn = (int)args.get_int("maxn", 64);
  args.reject_unknown();

  std::cout << "== Figure 2 / Theorem 2: simultaneous approximation is "
               "impossible ==\n"
            << "delta=" << delta << ", critical path = " << delta + 2
            << "\n\n"
            << "     n   nodes  seq-peak(n+delta)  liu-exact  "
               "DF-makespan  DF-peak  peak-ratio\n";

  for (int n = 4; n <= maxn; n *= 2) {
    Tree t = inapprox_tree(n, delta);
    Schedule proof = inapprox_sequential_schedule(t, n, delta);
    const auto proof_sim = simulate(t, proof);
    const MemSize exact = min_sequential_memory(t);
    const int p = t.size();  // unbounded processors
    const auto df = simulate(t, par_deepest_first(t, p));
    std::cout << "  " << n << "\t" << t.size() << "\t"
              << proof_sim.peak_memory << "\t\t" << exact << "\t  "
              << df.makespan << "\t" << df.peak_memory << "\t x"
              << fmt((double)df.peak_memory / (double)exact, 1) << "\n";
  }
  std::cout << "\nExpected: seq-peak == liu-exact == n + delta; the "
               "deepest-first schedule stays within a small constant of "
               "the optimal makespan (delta + 2) while its memory ratio "
               "grows linearly in n -- no (alpha, beta) approximation "
               "pair can exist.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return treesched::bench::run_main(argc, argv, bench_main);
}
