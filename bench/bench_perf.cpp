// P1: microbenchmarks of the complexity claims in §5:
//  * optimal postorder           O(n log n)
//  * Liu exact traversal         O(n^2) worst, near-linear in practice
//  * SplitSubtrees               O(n (log n + p)): a heap plus an O(p)
//                                top-p sum per split
//  * ParSubtrees end-to-end      O(n (log n + p)) with the postorder: the
//                                split, then ONE whole-tree traversal laid
//                                out per subtree (no subtree copies)
//  * list scheduling             O(n log n)
//  * simulator replay            O(n): radix-sorted event streams
//  * ParSubtreesOptim and CappedSubtrees on forks ("BM_Fork/<Name>"),
//    where every leaf is its own subtree: near-linear, so a per-subtree
//    cost proportional to n shows up as quadratic growth
//  * spec resolve ("BM_SpecResolve/{grid,synthetic}/<arg>"): the
//    tree_from_spec call a server makes for each first-seen spec, priced
//    against the resolved tree's size; near-linear for both kinds
// plus one end-to-end benchmark per registered (non-oracle) scheduling
// algorithm ("BM_Sched/<Name>"), registered dynamically from the registry
// in main() so new algorithms are benchmarked without touching this file,
// plus the scheduling-service batch path ("BM_Service/{cached,uncached}",
// requests/sec via items_per_second).
//
// Every run also writes a machine-readable summary (default
// BENCH_PR2.json, override with --bench_json=<path>): one entry per
// benchmark with ns/op and items/sec — the perf-trajectory data points
// the CI perf-smoke step uploads as an artifact.
//
// Smoke run for the perf pipeline:
//   bench_perf --benchmark_filter='BM_Sched|BM_Service|BM_SpecResolve' \
//       --benchmark_min_time=0.01 --bench_json=BENCH_PR2.json

#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/dataset.hpp"
#include "core/simulator.hpp"
#include "parallel/par_deepest_first.hpp"
#include "parallel/par_inner_first.hpp"
#include "parallel/par_subtrees.hpp"
#include "sched/registry.hpp"
#include "sequential/liu.hpp"
#include "sequential/postorder.hpp"
#include "service/service.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace {

using namespace treesched;

Tree make_bench_tree(std::int64_t n) {
  Rng rng(0xbe7c4 + (std::uint64_t)n);
  RandomTreeParams params;
  params.n = (NodeId)n;
  params.depth_bias = 1.0;
  params.max_output = 1000;
  params.max_exec = 200;
  params.min_work = 1.0;
  params.max_work = 100.0;
  return random_tree(params, rng);
}

void BM_OptimalPostorder(benchmark::State& state) {
  const Tree t = make_bench_tree(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(postorder(t).peak);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OptimalPostorder)->Range(1 << 10, 1 << 17)->Complexity();

void BM_LiuExact(benchmark::State& state) {
  const Tree t = make_bench_tree(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(liu_optimal_traversal(t).peak);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LiuExact)->Range(1 << 10, 1 << 15)->Complexity();

void BM_SplitSubtrees(benchmark::State& state) {
  const Tree t = make_bench_tree(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(split_subtrees(t, 32).predicted_makespan);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SplitSubtrees)->Range(1 << 10, 1 << 17)->Complexity();

void BM_ParSubtrees(benchmark::State& state) {
  const Tree t = make_bench_tree(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(par_subtrees(t, 16).start.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ParSubtrees)->Range(1 << 10, 1 << 16)->Complexity();

void BM_ParInnerFirst(benchmark::State& state) {
  const Tree t = make_bench_tree(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(par_inner_first(t, 16).start.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ParInnerFirst)->Range(1 << 10, 1 << 16)->Complexity();

void BM_ParDeepestFirst(benchmark::State& state) {
  const Tree t = make_bench_tree(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(par_deepest_first(t, 16).start.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ParDeepestFirst)->Range(1 << 10, 1 << 16)->Complexity();

void BM_Simulate(benchmark::State& state) {
  const Tree t = make_bench_tree(state.range(0));
  const Schedule s = par_deepest_first(t, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(t, s).peak_memory);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Simulate)->Range(1 << 10, 1 << 16)->Complexity();

void BM_SequentialPeak(benchmark::State& state) {
  const Tree t = make_bench_tree(state.range(0));
  const auto order = postorder(t).order;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sequential_peak_memory(t, order));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SequentialPeak)->Range(1 << 10, 1 << 17)->Complexity();

void BM_Fork(benchmark::State& state, const char* algo) {
  const Tree t = fork_tree(static_cast<int>(state.range(0)) - 1);
  const SchedulerPtr sched = SchedulerRegistry::instance().create(algo);
  const Resources res{16, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched->schedule(t, res).start.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK_CAPTURE(BM_Fork, ParSubtreesOptim, "ParSubtreesOptim")
    ->Arg(10000)->Arg(20000)->Arg(40000)
    ->Unit(benchmark::kMillisecond)->Complexity();
BENCHMARK_CAPTURE(BM_Fork, CappedSubtrees, "CappedSubtrees")
    ->Arg(10000)->Arg(20000)->Arg(40000)
    ->Unit(benchmark::kMillisecond)->Complexity();

// Spec resolve: `<kind>:<arg>:1` through tree_from_spec, the whole
// pipeline behind a first-seen spec (grid: pattern, nested dissection,
// column counts, amalgamation; synthetic: one tree draw). N is the
// resolved tree's size, so the fit prices cost per task.
void BM_SpecResolve(benchmark::State& state, const char* kind) {
  const std::string spec =
      std::string(kind) + ":" + std::to_string(state.range(0)) + ":1";
  NodeId size = 0;
  for (auto _ : state) {
    const Tree tree = tree_from_spec(spec);
    size = tree.size();
    benchmark::DoNotOptimize(size);
  }
  state.SetComplexityN(size);
}
BENCHMARK_CAPTURE(BM_SpecResolve, grid, "grid")
    ->Arg(20)->Arg(40)->Arg(80)->Arg(160)
    ->Unit(benchmark::kMicrosecond)->Complexity();
BENCHMARK_CAPTURE(BM_SpecResolve, synthetic, "synthetic")
    ->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000)
    ->Unit(benchmark::kMicrosecond)->Complexity();

// One end-to-end benchmark per registered algorithm on a fixed mid-size
// tree: the perf-trajectory signal for the whole roster.
void register_scheduler_benchmarks() {
  constexpr std::int64_t kSchedBenchNodes = 1 << 13;
  for (const std::string& name : default_campaign_algorithms()) {
    benchmark::RegisterBenchmark(
        ("BM_Sched/" + name).c_str(),
        [name](benchmark::State& state) {
          const Tree t = make_bench_tree(kSchedBenchNodes);
          const SchedulerPtr sched =
              SchedulerRegistry::instance().create(name);
          const Resources res{16, 0};
          for (auto _ : state) {
            benchmark::DoNotOptimize(sched->schedule(t, res).start.size());
          }
        });
  }
}

// The service batch path: K distinct requests (trees x algos x procs)
// answered as one batch per iteration. Cached answers from the result
// cache after the first iteration; uncached recomputes every request —
// the requests/sec ratio is the cache's leverage.
void BM_Service(benchmark::State& state, std::size_t cache_bytes) {
  SchedulingService service(ServiceConfig{.cache_bytes = cache_bytes});
  std::vector<ScheduleRequest> reqs;
  for (std::int64_t seed = 0; seed < 4; ++seed) {
    const TreeHandle handle =
        service.intern(make_bench_tree((1 << 10) + seed));
    for (const std::string& algo :
         {"ParSubtrees", "ParInnerFirst", "ParDeepestFirst", "Liu"}) {
      for (int p : {4, 16}) {
        ScheduleRequest req;
        req.tree = handle;
        req.algo = algo;
        req.p = p;
        reqs.push_back(req);
      }
    }
  }
  // Warm-up batch outside the timing loop: the cached variant measures
  // steady-state (hot cache) throughput, not the first-batch miss cost.
  benchmark::DoNotOptimize(service.schedule_batch(reqs).size());
  for (auto _ : state) {
    const auto responses = service.schedule_batch(reqs);
    benchmark::DoNotOptimize(responses.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(reqs.size()));
}

void register_service_benchmarks() {
  benchmark::RegisterBenchmark("BM_Service/cached", [](benchmark::State& s) {
    BM_Service(s, ResultCache::kDefaultByteBudget);
  });
  benchmark::RegisterBenchmark("BM_Service/uncached",
                               [](benchmark::State& s) { BM_Service(s, 0); });
}

// ---------------------------------------------------------------------------
// BENCH_PR2.json: a ConsoleReporter that additionally collects every
// per-iteration run and writes {name, ns_per_op, items_per_second} when
// the run finishes.
// ---------------------------------------------------------------------------

class JsonTrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.report_big_o ||
          run.report_rms || run.error_occurred || run.iterations == 0 ||
          run.repetition_index > 0) {  // one entry per name, not per rep
        continue;
      }
      Entry e;
      e.name = run.benchmark_name();
      e.ns_per_op = run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9;
      const auto it = run.counters.find("items_per_second");
      e.items_per_second =
          it == run.counters.end() ? 0.0 : static_cast<double>(it->second);
      entries_.push_back(std::move(e));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// True on success; complains on stderr otherwise.
  bool write_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "bench_perf: cannot open " << path << " for writing\n";
      return false;
    }
    os.precision(17);
    os << "{\n  \"schema\": \"treesched-bench-pr2-v1\",\n"
       << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      os << "    {\"name\": \"" << e.name << "\", \"ns_per_op\": "
         << e.ns_per_op << ", \"items_per_second\": " << e.items_per_second
         << "}" << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return true;
  }

 private:
  struct Entry {
    std::string name;
    double ns_per_op = 0.0;
    double items_per_second = 0.0;
  };
  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  // Our own flag, stripped before Google Benchmark parses the rest.
  std::string json_path = "BENCH_PR2.json";
  {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::string prefix = "--bench_json=";
      if (arg.rfind(prefix, 0) == 0) {
        json_path = arg.substr(prefix.size());
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
  }
  register_scheduler_benchmarks();
  register_service_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTrajectoryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const bool wrote = reporter.write_json(json_path);
  benchmark::Shutdown();
  return wrote ? 0 : 1;
}
