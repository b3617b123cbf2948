// Reproduces Table 1 of the paper: for each heuristic, the share of
// scenarios where it achieves the best (or within-5%-of-best) memory and
// makespan, and its average deviation from the sequential-optimal memory
// and from the best achieved makespan.
//
// The campaign roster defaults to every registered algorithm (paper
// heuristics + memory-capped schedulers + sequential baselines); restrict
// with --algos to reproduce the paper's exact four-row table.
//
// Flags: --scale S (instance sizes; 1.0 default), --seed, --procs list,
//        --algos "A,B,...", --csv PATH (raw per-scenario data).

#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "campaign/report.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace treesched;
  CliArgs args(argc, argv);
  auto setup = bench::make_campaign(args);
  const std::string csv = args.get("csv", "");
  const bool by_p = args.get_bool("by-p", false);
  args.reject_unknown();

  bench::print_header("Table 1: heuristic comparison", setup);
  const auto records = run_campaign(setup.dataset, setup.params);
  print_table1(std::cout, table1(records));

  if (by_p) {
    for (int p : setup.params.processor_counts) {
      std::cout << "\np = " << p << ":\n";
      print_table1(std::cout, table1_for_p(records, p));
    }
  }

  std::cout
      << "\nPaper reference for the four §5 heuristics "
         "(608 UF assembly trees):\n"
      << "  ParSubtrees      81.1%  85.2%  133.0%   0.2%  14.2%  34.7%\n"
      << "  ParSubtreesOptim 49.9%  65.6%  144.8%   1.1%  19.1%  28.5%\n"
      << "  ParInnerFirst    19.1%  26.2%  276.5%  37.2%  82.4%   2.6%\n"
      << "  ParDeepestFirst   3.0%   9.6%  325.8%  95.7%  99.9%   0.0%\n";

  if (!csv.empty()) {
    std::ofstream os(csv);
    write_scatter_csv(os, records, Normalization::kLowerBound);
    std::cout << "\nwrote raw scatter data to " << csv << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return treesched::bench::run_main(argc, argv, bench_main);
}
