// Reproduces Figure 7: every heuristic normalized to ParSubtrees
// (per scenario), as mean / p10 / p90 crosses plus optional raw CSV.

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
  args.reject_unknown();

  bench::print_header("Figure 7: comparison to ParSubtrees", setup);
  const auto records = run_campaign(setup.dataset, setup.params);
  const auto series = figure_series(records, Normalization::kParSubtrees);
  print_figure(std::cout, series,
               "relative (makespan, memory) vs ParSubtrees");
  std::cout << "\nPaper shape: ParSubtreesOptim slightly faster with "
               "slightly more memory; ParInnerFirst/ParDeepestFirst faster "
               "but with a large memory multiple.\n";
  if (!csv.empty()) {
    std::ofstream os(csv);
    write_scatter_csv(os, records, Normalization::kParSubtrees);
    std::cout << "wrote scatter to " << csv << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return treesched::bench::run_main(argc, argv, bench_main);
}
