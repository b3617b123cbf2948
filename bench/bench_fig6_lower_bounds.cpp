// Reproduces Figure 6: relative makespan and relative memory of every
// heuristic against the scenario lower bounds (best sequential postorder
// memory; max(W/p, critical path) makespan), summarized by the
// mean / 10th / 90th percentile "crosses" of the paper's plot.
//
// Flags as in bench_table1; --csv dumps the full scatter for plotting.

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

  bench::print_header("Figure 6: comparison to lower bounds", setup);
  const auto records = run_campaign(setup.dataset, setup.params);
  const auto series = figure_series(records, Normalization::kLowerBound);
  print_figure(std::cout, series,
               "relative (makespan, memory) vs lower bounds");

  std::cout << "\nmax observed memory blow-up per heuristic:\n";
  for (const auto& s : series) {
    std::cout << "  " << s.algorithm << ": x" << fmt(s.memory_summary.max, 1)
              << " (makespan up to x" << fmt(s.makespan_summary.max, 2)
              << ")\n";
  }
  std::cout << "\nPaper shape: makespan ratios stay below ~4 while memory "
               "ratios exceed 100 in extreme cases.\n";

  if (!csv.empty()) {
    std::ofstream os(csv);
    write_scatter_csv(os, records, Normalization::kLowerBound);
    std::cout << "wrote scatter to " << csv << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return treesched::bench::run_main(argc, argv, bench_main);
}
