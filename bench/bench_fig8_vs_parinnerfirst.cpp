// Reproduces Figure 8: every heuristic normalized to ParInnerFirst.

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

  bench::print_header("Figure 8: comparison to ParInnerFirst", setup);
  const auto records = run_campaign(setup.dataset, setup.params);
  const auto series = figure_series(records, Normalization::kParInnerFirst);
  print_figure(std::cout, series,
               "relative (makespan, memory) vs ParInnerFirst");
  std::cout << "\nPaper shape: ParDeepestFirst uses more memory at a "
               "comparable makespan; ParSubtrees saves memory at a "
               "makespan premium.\n";
  if (!csv.empty()) {
    std::ofstream os(csv);
    write_scatter_csv(os, records, Normalization::kParInnerFirst);
    std::cout << "wrote scatter to " << csv << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return treesched::bench::run_main(argc, argv, bench_main);
}
