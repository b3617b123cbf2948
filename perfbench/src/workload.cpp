#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "campaign/dataset.hpp"
#include "core/lower_bounds.hpp"
#include "parallel/capped_subtrees.hpp"
#include "parallel/memory_bounded.hpp"
#include "service/instance_store.hpp"
#include "util/random.hpp"

namespace perfbench {

using treesched::MemSize;
using treesched::Rng;

const std::vector<std::string> kHeuristics = {
    "ParSubtrees", "ParSubtreesOptim", "ParInnerFirst", "ParDeepestFirst"};
const std::vector<std::string> kSequential = {"Liu", "BestPostorder",
                                              "NaturalPostorder"};
const std::vector<std::string> kCappedAlgos = {"MemoryBounded",
                                               "CappedSubtrees"};

namespace {

// Round sizes. A cold round is 900 trees x 7 requests (about 1.5 s of
// serving on 4 cores), a capped round 1000 trees x 4 requests (about
// 3 s; large enough that its ~1000 interactive requests give a p99).
constexpr int kColdTrees = 900;
constexpr int kCappedTrees = 1000;
constexpr int kHotTrees = 128;
constexpr double kColdRoundSeconds = 1.5;
constexpr double kCappedRoundSeconds = 3.0;
constexpr double kHotRoundSeconds = 1.5;
constexpr double kInteractiveShare = 0.25;

std::uint64_t round_seed(std::uint64_t seed, int round, std::uint64_t salt) {
  treesched::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL +
                           static_cast<std::uint64_t>(round) * 0x632be59bd9b4e019ULL +
                           salt);
  return sm.next();
}

/// grid:<nx>:<z> specs whose trees have roughly [min_n, max_n] nodes
/// (n is about 0.72 nx^2 at z=1, 0.4 nx^2 at z=2, 0.2 nx^2 at z=4).
std::vector<std::string> grid_specs(double min_n, double max_n) {
  std::vector<std::string> out;
  for (const auto& [z, factor] : {std::pair{1, 0.72}, {2, 0.4}, {4, 0.2}}) {
    for (int nx = 10; nx <= 80; ++nx) {
      const double n = factor * nx * nx;
      if (n >= min_n && n <= max_n) {
        out.push_back("grid:" + std::to_string(nx) + ":" + std::to_string(z));
      }
    }
  }
  return out;
}

std::string synthetic_spec(Rng& rng, double min_n, double max_n) {
  const double n = std::exp(rng.uniform_real(std::log(min_n), std::log(max_n)));
  return "synthetic:" + std::to_string(static_cast<long>(n)) + ":" +
         std::to_string(rng.uniform(1ULL << 32));
}

/// Specs for `count` distinct trees: a fifth grid:, the rest synthetic:.
std::vector<std::string> tree_specs(Rng& rng, int count, double min_n,
                                    double max_n) {
  std::vector<std::string> grids = grid_specs(min_n, max_n);
  rng.shuffle(grids);
  std::vector<std::string> specs;
  for (int i = 0; i < count; ++i) {
    if (rng.flip(0.2) && !grids.empty()) {
      specs.push_back(grids.back());
      grids.pop_back();
    } else {
      specs.push_back(synthetic_spec(rng, min_n, max_n));
    }
  }
  return specs;
}

/// fn(i) for i in [0, n), on up to four threads (stream preparation
/// runs before any server is spawned).
template <typename Fn>
void parallel_for(std::size_t n, Fn fn) {
  const std::size_t workers =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i = w; i < n; i += workers) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

std::vector<TreeInfo> resolve_trees(const std::vector<std::string>& specs) {
  std::vector<TreeInfo> trees(specs.size());
  parallel_for(specs.size(), [&](std::size_t i) {
    TreeInfo& t = trees[i];
    t.spec = specs[i];
    t.tree = treesched::tree_from_spec(t.spec);
    t.fingerprint = treesched::tree_fingerprint(t.tree);
    t.postorder_peak = treesched::lower_bounds(t.tree, 1, false).memory_postorder;
  });
  return trees;
}

Request make_request(const std::vector<TreeInfo>& trees, std::uint32_t tree,
                     const std::string& algo, int p, MemSize cap,
                     bool interactive) {
  Request r;
  r.tree = tree;
  r.algo = algo;
  r.p = p;
  r.cap = cap;
  r.interactive = interactive;
  r.makespan_lb = treesched::makespan_lower_bound(trees[tree].tree, p);
  r.scored = std::find(kSequential.begin(), kSequential.end(), algo) ==
             kSequential.end();
  r.line = trees[tree].spec + " " + algo + " " + std::to_string(p);
  if (cap != 0) r.line.append(" ").append(std::to_string(cap));
  return r;
}

Stream hot_stream(Rng& rng) {
  Stream s;
  std::vector<std::string> specs = tree_specs(rng, kHotTrees, 200, 1500);
  s.trees = resolve_trees(specs);
  for (std::uint32_t t = 0; t < s.trees.size(); ++t) {
    const int p1 = static_cast<int>(rng.uniform_int(2, 32));
    int p2 = static_cast<int>(rng.uniform_int(2, 31));
    if (p2 >= p1) ++p2;
    for (int p : {p1, p2}) {
      for (const std::string& algo : kHeuristics) {
        s.requests.push_back(make_request(s.trees, t, algo, p, 0,
                                          rng.flip(kInteractiveShare)));
      }
    }
  }
  return s;
}

Stream cold_stream(Rng& rng) {
  Stream s;
  s.trees = resolve_trees(tree_specs(rng, kColdTrees, 300, 6000));
  for (std::uint32_t t = 0; t < s.trees.size(); ++t) {
    const int p = static_cast<int>(rng.uniform_int(2, 32));
    std::vector<std::string> algos = kHeuristics;
    algos.insert(algos.end(), kSequential.begin(), kSequential.end());
    rng.shuffle(algos);
    for (const std::string& algo : algos) {
      s.requests.push_back(
          make_request(s.trees, t, algo, p, 0, rng.flip(kInteractiveShare)));
    }
  }
  return s;
}

Stream capped_stream(Rng& rng) {
  Stream s;
  s.trees = resolve_trees(tree_specs(rng, kCappedTrees, 400, 2500));
  struct Draw {
    int p;
    double mb_factor, cs_factor;
    MemSize floor_mb = 0, floor_cs = 0;  ///< each scheduler's feasibility floor
  };
  std::vector<Draw> draws;
  for (std::size_t t = 0; t < s.trees.size(); ++t) {
    draws.push_back(Draw{static_cast<int>(rng.uniform_int(2, 32)),
                         std::exp(rng.uniform_real(std::log(1.02), std::log(4.0))),
                         std::exp(rng.uniform_real(std::log(1.02), std::log(4.0)))});
  }
  parallel_for(s.trees.size(), [&](std::size_t t) {
    draws[t].floor_mb = treesched::min_feasible_cap(s.trees[t].tree);
    draws[t].floor_cs =
        treesched::capped_subtrees_min_cap(s.trees[t].tree, draws[t].p);
  });
  const auto scaled = [](MemSize floor, double f) {
    return static_cast<MemSize>(std::ceil(f * static_cast<double>(floor)));
  };
  for (std::uint32_t t = 0; t < s.trees.size(); ++t) {
    const Draw& d = draws[t];
    // The registry's derived default: 2x the best-postorder floor, and
    // for CappedSubtrees at least its own floor.
    const MemSize default_mb = scaled(d.floor_mb, 2.0);
    std::vector<Request> reqs;
    // {algo, cap sent (0 = default), the peak the answer must keep to}
    const std::tuple<const char*, MemSize, MemSize> asks[] = {
        {"MemoryBounded", scaled(d.floor_mb, d.mb_factor), scaled(d.floor_mb, d.mb_factor)},
        {"MemoryBounded", 0, default_mb},
        {"CappedSubtrees", scaled(d.floor_cs, d.cs_factor), scaled(d.floor_cs, d.cs_factor)},
        {"CappedSubtrees", 0, std::max(d.floor_cs, default_mb)},
    };
    for (const auto& [algo, cap, limit] : asks) {
      reqs.push_back(make_request(s.trees, t, algo, d.p, cap, false));
      reqs.back().peak_limit = limit;
    }
    rng.shuffle(reqs);
    for (Request& r : reqs) {
      r.interactive = rng.flip(kInteractiveShare);
      s.requests.push_back(std::move(r));
    }
  }
  return s;
}

}  // namespace

HotPicker::HotPicker(std::uint64_t seed, int round, int conn, std::size_t pool)
    : rng_(round_seed(seed, round, 1000 + static_cast<std::uint64_t>(conn))),
      pool_(pool) {}

void HotPicker::next(std::size_t& key, bool& interactive) {
  key = rng_.uniform(pool_);
  interactive = rng_.flip(kInteractiveShare);
}

std::string priority_field(bool interactive) {
  return interactive ? " priority=interactive" : " priority=bulk";
}

Workload parse_workload(const std::string& name) {
  if (name == "hot") return {name, Mix::kHot, false};
  if (name == "routed") return {name, Mix::kHot, true};
  if (name == "cold") return {name, Mix::kCold, false};
  if (name == "capped") return {name, Mix::kCapped, false};
  throw std::invalid_argument("unknown workload \"" + name +
                              "\" (hot|cold|capped|routed)");
}

int rounds_for(Mix mix, int seconds) {
  const double per_round = mix == Mix::kHot    ? kHotRoundSeconds
                           : mix == Mix::kCold ? kColdRoundSeconds
                                               : kCappedRoundSeconds;
  return std::max(1, static_cast<int>(std::lround(seconds / per_round)));
}

double hot_round_seconds(int seconds) {
  return static_cast<double>(seconds) / rounds_for(Mix::kHot, seconds);
}

Stream make_stream(Mix mix, std::uint64_t seed, int round) {
  Rng rng(round_seed(seed, round, static_cast<std::uint64_t>(mix)));
  switch (mix) {
    case Mix::kHot:
      return hot_stream(rng);
    case Mix::kCold:
      return cold_stream(rng);
    case Mix::kCapped:
      return capped_stream(rng);
  }
  throw std::logic_error("unreachable mix");
}

std::vector<std::string> warmup_lines(Mix mix, std::uint64_t seed, int round) {
  // Stream trees use synthetic seeds below 2^32; these sit above it.
  const std::uint64_t base = (1ULL << 40) + round_seed(seed, round, 99) % (1ULL << 20);
  const std::vector<std::string>& algos =
      mix == Mix::kCapped ? kCappedAlgos : kHeuristics;
  std::vector<std::string> lines;
  for (int t = 0; t < 8; ++t) {
    for (const std::string& algo : algos) {
      lines.push_back("synthetic:600:" + std::to_string(base + t) + " " + algo +
                      " 8" + priority_field(t % 4 == 0));
    }
  }
  return lines;
}

}  // namespace perfbench
