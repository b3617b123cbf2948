// Figure 3: ParSubtrees is at best a p-approximation for makespan.
// On a fork with p*k unit leaves, ParSubtrees' makespan is p(k-1)+2 while
// the optimum is k+1; ParSubtreesOptim and the list heuristics fix it.
//
// Flags: --p (default 4), --maxk (default 256).

#include <iostream>

#include "bench_common.hpp"
#include "core/lower_bounds.hpp"
#include "core/simulator.hpp"
#include "sched/registry.hpp"
#include "trees/generators.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace treesched;
  CliArgs args(argc, argv);
  const int p = (int)args.get_int("p", 4);
  const int maxk = (int)args.get_int("maxk", 256);
  args.reject_unknown();

  const auto algos = parallel_campaign_algorithms();

  std::cout << "== Figure 3: fork worst case for ParSubtrees (p = " << p
            << ") ==\n\n"
            << "      k   leaves   optimal";
  for (const std::string& name : algos) std::cout << "  " << name;
  std::cout << "   ratio(ParSubtrees/opt)\n";

  for (int k = 4; k <= maxk; k *= 4) {
    Tree t = fork_tree(p * k);
    const double opt = k + 1;  // k waves of p leaves + root
    std::cout << "  " << k << "\t" << p * k << "\t" << opt;
    double first = 0;
    for (const std::string& name : algos) {
      const double ms =
          simulate(t, SchedulerRegistry::instance().create(name)->schedule(
                          t, Resources{p, 0}))
              .makespan;
      if (name == "ParSubtrees") first = ms;
      std::cout << "\t" << ms;
    }
    std::cout << "\t x" << fmt(first / opt, 2) << "\n";
  }
  std::cout << "\nExpected: ParSubtrees' ratio tends to p = " << p
            << " as k grows; all other heuristics stay at the optimum.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return treesched::bench::run_main(argc, argv, bench_main);
}
