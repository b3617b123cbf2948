// Ablation A2: how much does the reference leaf order matter for the list
// heuristics? The paper uses the *optimal* sequential postorder as the
// input order O; this ablation compares against the natural postorder and
// a deliberately bad (reversed-sibling) postorder.
//
// Flags: --scale, --seed, --procs.

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/simulator.hpp"
#include "parallel/par_deepest_first.hpp"
#include "parallel/par_inner_first.hpp"
#include "sequential/postorder.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace treesched;
  CliArgs args(argc, argv);
  auto setup = bench::make_campaign(args);
  args.reject_unknown();
  bench::print_header("Ablation: reference leaf order in list heuristics",
                      setup);

  struct Variant {
    std::string name;
    PostorderPolicy policy;
  };
  const std::vector<Variant> variants{
      {"optimal-postorder", PostorderPolicy::kOptimal},
      {"natural-postorder", PostorderPolicy::kNatural},
      {"by-output-postorder", PostorderPolicy::kByOutput},
  };

  for (const char* heuristic : {"ParInnerFirst", "ParDeepestFirst"}) {
    std::cout << heuristic << ":\n";
    std::vector<std::vector<double>> rel_mem(variants.size());
    for (const auto& entry : setup.dataset) {
      for (int p : setup.params.processor_counts) {
        std::vector<MemSize> mems;
        for (const auto& v : variants) {
          const auto order = postorder(entry.tree, v.policy).order;
          Schedule s = std::string(heuristic) == "ParInnerFirst"
                           ? par_inner_first(entry.tree, p, order)
                           : par_deepest_first(entry.tree, p, order);
          mems.push_back(simulate(entry.tree, s).peak_memory);
        }
        const auto base = (double)mems[0];
        for (std::size_t vi = 0; vi < variants.size(); ++vi) {
          rel_mem[vi].push_back((double)mems[vi] / base);
        }
      }
    }
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
      const auto s = summarize(rel_mem[vi]);
      std::cout << "  " << variants[vi].name << ": rel-memory mean "
                << fmt(s.mean, 3) << ", p90 " << fmt(s.p90, 3) << ", max "
                << fmt(s.max, 2) << "\n";
    }
  }
  std::cout << "\nExpected: the optimal-postorder reference gives the "
               "lowest memory on average, confirming the paper's choice of "
               "input order O.\n";
  return 0;
}
