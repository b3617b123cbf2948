#pragma once
// Shared plumbing for the bench binaries: campaign construction from CLI
// flags, a uniform header format, and the one way a bench reports an
// error (run_main).

#include <exception>
#include <iostream>
#include <string>

#include "campaign/dataset.hpp"
#include "campaign/runner.hpp"
#include "util/cli.hpp"

namespace treesched::bench {

/// Runs a bench's main body: a std::exception that escapes it (an
/// unknown or malformed flag, an invalid schedule, a scheduler's error)
/// prints `error: <what>` and exits 1 instead of terminating the process.
inline int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

struct CampaignSetup {
  std::vector<DatasetEntry> dataset;
  CampaignParams params;
};

/// Flags: --scale (default 1.0), --seed, --procs "2,4,8,16,32",
/// --algos "ParSubtrees,Liu,..." (default: the full registry roster
/// minus oracles), --csv <path>.
inline CampaignSetup make_campaign(const CliArgs& args) {
  CampaignSetup setup;
  DatasetParams dp;
  dp.scale = args.get_double("scale", 1.0);
  dp.seed = (std::uint64_t)args.get_int("seed", 42);
  setup.dataset = build_dataset(dp);
  setup.params.algorithms = split_csv(args.get("algos", ""));
  setup.params.processor_counts.clear();
  for (const std::string& tok : split_csv(args.get("procs", "2,4,8,16,32"))) {
    setup.params.processor_counts.push_back(std::stoi(tok));
  }
  return setup;
}

inline void print_header(const std::string& what,
                         const CampaignSetup& setup) {
  std::cout << "== " << what << " ==\n"
            << "dataset: " << setup.dataset.size() << " trees; processors:";
  for (int p : setup.params.processor_counts) std::cout << ' ' << p;
  std::cout << "\n\n";
}

}  // namespace treesched::bench
