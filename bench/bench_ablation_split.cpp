// Ablation A1: ParSubtrees design choices.
//  * plain (Algorithm 1) vs LPT packing of all subtrees (ParSubtreesOptim);
//  * sequential sub-algorithm: optimal postorder vs Liu exact vs natural
//    postorder.
// Reports campaign-average relative makespan and memory for each variant.
//
// Flags: --scale, --seed, --procs (as bench_table1).

#include <iostream>

#include "bench_common.hpp"
#include "core/simulator.hpp"
#include "parallel/par_subtrees.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace treesched;
  CliArgs args(argc, argv);
  auto setup = bench::make_campaign(args);
  // Liu-exact is O(n^2); keep the ablation to moderate trees by default.
  const auto maxn = args.get_int("maxn", 6000);
  args.reject_unknown();
  std::erase_if(setup.dataset, [&](const DatasetEntry& e) {
    return e.tree.size() > maxn;
  });
  bench::print_header("Ablation: ParSubtrees variants", setup);

  struct Variant {
    std::string name;
    ParSubtreesOptions opts;
  };
  std::vector<Variant> variants;
  for (bool optim : {false, true}) {
    for (auto seq : {SequentialAlgo::kOptimalPostorder,
                     SequentialAlgo::kLiuExact,
                     SequentialAlgo::kNaturalPostorder}) {
      Variant v;
      v.name = std::string(optim ? "LPT-pack" : "plain") + "+" +
               (seq == SequentialAlgo::kOptimalPostorder ? "opt-postorder"
                : seq == SequentialAlgo::kLiuExact       ? "liu-exact"
                                                         : "nat-postorder");
      v.opts.optimized_packing = optim;
      v.opts.sequential = seq;
      variants.push_back(v);
    }
  }

  // Reference: plain + optimal postorder (the paper's ParSubtrees).
  std::vector<std::vector<double>> rel_ms(variants.size()),
      rel_mem(variants.size());
  for (const auto& entry : setup.dataset) {
    for (int p : setup.params.processor_counts) {
      const auto ref = simulate(entry.tree, par_subtrees(entry.tree, p));
      for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        const auto sim =
            simulate(entry.tree, par_subtrees(entry.tree, p, variants[vi].opts));
        rel_ms[vi].push_back(sim.makespan / ref.makespan);
        rel_mem[vi].push_back((double)sim.peak_memory /
                              (double)ref.peak_memory);
      }
    }
  }
  std::cout << "variant                     rel-makespan(mean)  "
               "rel-memory(mean)  rel-memory(p90)\n";
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    const auto ms = summarize(rel_ms[vi]);
    const auto mem = summarize(rel_mem[vi]);
    std::cout << "  " << variants[vi].name;
    for (std::size_t pad = variants[vi].name.size(); pad < 26; ++pad) {
      std::cout << ' ';
    }
    std::cout << fmt(ms.mean, 3) << "\t\t" << fmt(mem.mean, 3) << "\t\t"
              << fmt(mem.p90, 3) << "\n";
  }
  std::cout << "\nExpected: LPT packing trades a makespan improvement for "
               "extra memory; Liu-exact vs optimal-postorder changes memory "
               "only marginally (the paper's §6.1 rationale for using the "
               "postorder).\n";
  return 0;
}
