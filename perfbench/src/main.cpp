// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload hot|cold|capped|routed --seed N --seconds S
//             --trace 0|1 --server PATH --router PATH --workdir DIR
//             [--revision TEXT]
//
// --trace 0 runs the timed rounds and prints every end-to-end metric;
// --trace 1 runs the traced run instead (serving processes read from
// outside, plus the in-process replay) and prints every per-layer
// metric. Each metric is printed as a `metric <name> = <value> <unit>
// (n=...)` line; the last line of stdout is the JSON result. A wrong
// answer makes the exit code 1; a step that cannot complete prints
// which one and exits 2 without a result.

#include <signal.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "load.hpp"
#include "replay.hpp"
#include "util/cli.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string samples;  ///< what the value was computed from
};

class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::string samples) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                              std::move(samples)});
  }

  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    char buf[64];
    for (const Metric& m : metrics_) {
      std::snprintf(buf, sizeof(buf), "%.10g", m.value);
      std::cout << "metric " << m.name << " = " << buf << " " << m.unit
                << " (n=" << m.samples << ")\n";
    }
    const double rate =
        attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
    std::snprintf(buf, sizeof(buf), "%.10g", rate);
    std::cout << "error_rate = " << buf << " ratio (n=" << attempted
              << " attempted)\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof(buf), "%.10g", m.value);
      std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf
                << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
};

std::string count(std::size_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

void print_environment(const std::string& revision) {
  std::ifstream load("/proc/loadavg");
  double l1 = 0, l5 = 0, l15 = 0;
  load >> l1 >> l5 >> l15;
  std::cout << "env nproc=" << std::thread::hardware_concurrency()
            << " loadavg=" << l1 << "," << l5 << "," << l15
            << " compiler=\"GCC " << __VERSION__ << "\""
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " revision=" << (revision.empty() ? "unknown" : revision) << "\n";
}

/// Fewest count-sized (cold, capped) rounds a timed run makes.
constexpr int kMinRounds = 3;

/// What a set of rounds adds up to. Latency quantiles are taken per
/// round and reported as the median over rounds, so a burst of noise in
/// one round does not move them. The tail reported is p90, not p99: on a
/// shared 4-vCPU host the hot loop's per-round p99 follows the
/// hypervisor's preemptions (0.23 to 6.3 ms at one load) while its p90
/// stays within a few percent; p99 is still printed per round.
struct Totals {
  std::vector<RoundResult> rounds;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> p50_ms, p90_ms, p99_ms, interactive_p90_ms;
  std::size_t samples = 0, interactive_samples = 0;
  /// Sums of log(makespan / lower bound) and log(peak / postorder peak):
  /// the ratios are geometric means, which one pathological tree cannot
  /// swing.
  double log_makespan_ratio = 0, log_memory_ratio = 0;
  std::size_t scored = 0;
  std::vector<std::string> errors;

  void add(const Stream& stream, RoundResult r, bool score) {
    attempted += r.attempted;
    failed += r.failed;
    p50_ms.push_back(quantile(r.latency_us, 0.50) / 1000.0);
    p90_ms.push_back(quantile(r.latency_us, 0.90) / 1000.0);
    p99_ms.push_back(quantile(r.latency_us, 0.99) / 1000.0);
    interactive_p90_ms.push_back(quantile(r.interactive_us, 0.90) / 1000.0);
    samples += r.latency_us.size();
    interactive_samples += r.interactive_us.size();
    for (std::size_t i = 0; score && i < stream.requests.size(); ++i) {
      const Request& req = stream.requests[i];
      const Answer& a = r.answers[i];
      if (!req.scored || !a.received) continue;
      log_makespan_ratio += std::log(a.makespan / req.makespan_lb);
      log_memory_ratio +=
          std::log(static_cast<double>(a.peak_memory) /
                   static_cast<double>(stream.trees[req.tree].postorder_peak));
      ++scored;
    }
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    r.latency_us.clear();
    r.latency_us.shrink_to_fit();
    r.interactive_us.clear();
    r.interactive_us.shrink_to_fit();
    r.answers.clear();
    rounds.push_back(std::move(r));
  }

  [[nodiscard]] double answered(const RoundResult& r) const {
    return static_cast<double>(r.attempted - r.failed);
  }
};

struct Run {
  Totals totals;
  Stream first_stream;                ///< round 0, kept for the replay
  std::vector<Answer> first_answers;  ///< what the servers answered in it
};

/// Rounds 0, 1, ... of `workload` on the given topology: at most
/// `max_rounds`, and once `min_rounds` are done, only while the timed
/// phases add up to less than `budget_s`. On a slow machine a run of the
/// count-sized cold and capped rounds thus stays near its budget. Only
/// the first `min_rounds` rounds, which every run makes, score the
/// quality ratios, so those stay exact per seed either way.
Run run_rounds(const Config& config, const Workload& workload, bool routed,
               std::uint64_t seed, int max_rounds, int min_rounds,
               double budget_s, double hot_seconds) {
  Run run;
  double timed_s = 0.0;
  for (int r = 0; r < max_rounds && (r < min_rounds || timed_s < budget_s); ++r) {
    Stream stream = make_stream(workload.mix, seed, r);
    RoundResult result =
        run_round(config, workload, routed, stream, seed, r, hot_seconds);
    timed_s += result.timed_s;
    if (r == 0) {
      run.first_answers = result.answers;
      run.first_stream = stream;
    }
    run.totals.add(stream, std::move(result), r < min_rounds);
    const RoundResult& done = run.totals.rounds.back();
    std::cout << "round " << r << (routed ? " routed" : " direct") << ": setup "
              << done.setup_s << " s, timed " << done.timed_s << " s, "
              << done.attempted - done.failed << " correct answers, "
              << done.failed << " wrong, p50 " << run.totals.p50_ms.back()
              << " ms, p90 " << run.totals.p90_ms.back() << " ms, p99 "
              << run.totals.p99_ms.back() << " ms\n";
  }
  return run;
}

double rps(const RoundResult& r) {
  return static_cast<double>(r.attempted - r.failed) / r.timed_s;
}

void end_to_end(const Totals& t, Report& report) {
  std::vector<double> throughput, setup, rss;
  for (const RoundResult& r : t.rounds) {
    throughput.push_back(rps(r));
    setup.push_back(r.setup_s);
    rss.push_back(r.rss_mb);
  }
  const std::size_t n = t.rounds.size();
  const std::string rounds = count(n, "rounds, median");
  const std::string per_round = count(n, "rounds, median of per-round quantiles over ");
  report.add("throughput_rps", median(throughput), "req/s", rounds);
  report.add("latency_p50_ms", median(t.p50_ms), "ms",
             per_round + count(t.samples, "requests"));
  report.add("latency_p90_ms", median(t.p90_ms), "ms",
             per_round + count(t.samples, "requests"));
  report.add("interactive_p90_ms", median(t.interactive_p90_ms), "ms",
             per_round + count(t.interactive_samples, "interactive requests"));
  report.add("setup_s", median(setup), "s", rounds);
  report.add("server_rss_mb", median(rss), "MB", rounds);
  const auto scored = static_cast<double>(t.scored);
  const std::string answers = count(t.scored, "parallel-scheduler answers, geometric mean");
  report.add("makespan_ratio", std::exp(t.log_makespan_ratio / scored), "ratio", answers);
  report.add("memory_ratio", std::exp(t.log_memory_ratio / scored), "ratio", answers);
}

std::uint64_t stat(const StatsMap& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

double layer(const ReplayResult& rep, const std::string& name, double scale) {
  const auto it = rep.layers.find(name);
  if (it == rep.layers.end() || it->second.calls == 0) return 0.0;
  return it->second.self_ns / it->second.calls * scale;
}

std::string layer_calls(const ReplayResult& rep, const std::string& name) {
  const auto it = rep.layers.find(name);
  const double calls = it == rep.layers.end() ? 0.0 : it->second.calls;
  return count(static_cast<std::size_t>(calls), "replayed calls");
}

/// The per-layer metrics of a traced run: `main` is the workload on its
/// own topology, `other` the same mix on the other one.
void per_layer(const Workload& w, const Totals& main, const Totals& other,
               const ReplayResult& rep, Report& report) {
  const Totals& direct = w.routed ? other : main;
  const Totals& routed = w.routed ? main : other;
  double answered = 0, io_ns = 0, serve_ns = 0, timed_node_s = 0, pool_ns = 0,
         pool_thread_s = 0, misses = 0, hits = 0, probes = 0, loadgen_ns = 0;
  std::vector<double> wait_inter, wait_bulk;
  for (const RoundResult& r : main.rounds) {
    answered += main.answered(r);
    io_ns += static_cast<double>(r.io_cpu_ns);
    serve_ns += static_cast<double>(r.backend_cpu_ns + r.router_cpu_ns);
    timed_node_s += r.timed_s * r.nodes;
    pool_ns += static_cast<double>(r.pool_cpu_round_ns);
    pool_thread_s += r.round_s * static_cast<double>(r.pool_threads);
    misses += static_cast<double>(stat(r.stats_after, "cache_misses"));
    const double dh = static_cast<double>(stat(r.stats_after, "cache_hits") -
                                          stat(r.stats_before, "cache_hits"));
    const double dm = static_cast<double>(stat(r.stats_after, "cache_misses") -
                                          stat(r.stats_before, "cache_misses"));
    hits += dh;
    probes += dh + dm;
    loadgen_ns += static_cast<double>(r.loadgen_cpu_ns);
    wait_inter.push_back(static_cast<double>(stat(r.stats_max, "queue_wait_p99_us_interactive")));
    wait_bulk.push_back(static_cast<double>(stat(r.stats_max, "queue_wait_p99_us_bulk")));
  }
  const RoundResult& last = main.rounds.back();
  const std::string per_answer = count(static_cast<std::size_t>(answered), "answers");
  const std::string rounds = count(main.rounds.size(), "rounds");

  report.add("net.io_cpu_us", io_ns / answered / 1e3, "us", per_answer);
  report.add("net.io_busy_pct", 100.0 * io_ns / (timed_node_s * 1e9), "%", rounds);
  report.add("net.frame_decode_ns", layer(rep, "net.frame_decode", 1), "ns",
             layer_calls(rep, "net.frame_decode"));
  report.add("net.line_split_ns", layer(rep, "net.line_split", 1), "ns",
             layer_calls(rep, "net.line_split"));
  report.add("net.parse_ns", layer(rep, "net.parse", 1), "ns",
             layer_calls(rep, "net.parse"));
  report.add("net.parse_v2_ns", layer(rep, "net.parse_v2", 1), "ns",
             layer_calls(rep, "net.parse_v2"));
  report.add("net.spec_memo_ns", layer(rep, "net.spec_memo", 1), "ns",
             layer_calls(rep, "net.spec_memo"));
  report.add("net.encode_v3_ns", layer(rep, "net.encode_v3", 1), "ns",
             layer_calls(rep, "net.encode_v3"));
  report.add("net.encode_v2_ns", layer(rep, "net.encode_v2", 1), "ns",
             layer_calls(rep, "net.encode_v2"));
  report.add("net.loopback_rtt_us", rep.loopback_rtt_us, "us", "2000 echoes, median");
  report.add("service.cache_probe_ns", layer(rep, "service.cache_probe", 1), "ns",
             layer_calls(rep, "service.cache_probe"));
  report.add("service.cache_hit_ratio", probes == 0 ? 0.0 : hits / probes, "ratio",
             count(static_cast<std::size_t>(probes), "timed lookups"));
  report.add("campaign.resolve_synthetic_us",
             layer(rep, "campaign.resolve_synthetic", 1e-3), "us",
             layer_calls(rep, "campaign.resolve_synthetic"));
  report.add("campaign.resolve_grid_us", layer(rep, "campaign.resolve_grid", 1e-3),
             "us", layer_calls(rep, "campaign.resolve_grid"));
  report.add("service.intern_us", layer(rep, "service.intern", 1e-3), "us",
             layer_calls(rep, "service.intern"));
  report.add("service.cache_put_us", layer(rep, "service.cache_put", 1e-3), "us",
             layer_calls(rep, "service.cache_put"));
  report.add("service.store_trees", static_cast<double>(stat(last.stats_after, "store_trees")),
             "count", "1 round, the last");
  report.add("service.store_mb",
             static_cast<double>(stat(last.stats_after, "store_bytes")) / (1 << 20), "MB",
             "1 round, the last");
  report.add("service.cache_evictions",
             static_cast<double>(stat(last.stats_after, "cache_evictions")), "count",
             "1 round, the last");
  report.add("service.queue_wait_p99_us.interactive", median(wait_inter), "us",
             rounds + ", median");
  report.add("service.queue_wait_p99_us.bulk", median(wait_bulk), "us",
             rounds + ", median");
  double refused = 0;
  for (const RoundResult& r : main.rounds) {
    refused += static_cast<double>(stat(r.stats_after, "queue_rejected"));
  }
  report.add("service.queue_refused", refused, "count", rounds);
  report.add("util.pool_cpu_us", pool_ns / misses / 1e3, "us",
             count(static_cast<std::size_t>(misses), "computed requests"));
  report.add("util.pool_busy_pct", 100.0 * pool_ns / (pool_thread_s * 1e9), "%", rounds);
  std::vector<std::string> algos = kHeuristics;
  algos.insert(algos.end(), kSequential.begin(), kSequential.end());
  algos.insert(algos.end(), kCappedAlgos.begin(), kCappedAlgos.end());
  for (const std::string& algo : algos) {
    report.add("sched." + algo + "_ms", layer(rep, "sched." + algo, 1e-6), "ms",
               layer_calls(rep, "sched." + algo));
  }
  report.add("core.simulate_ms", layer(rep, "core.simulate", 1e-6), "ms",
             layer_calls(rep, "core.simulate"));
  report.add("obs.algo_histogram_ns", layer(rep, "obs.algo_histogram", 1), "ns",
             layer_calls(rep, "obs.algo_histogram"));

  double r_answered = 0, router_ns = 0, backend_ns = 0, router_s = 0;
  for (const RoundResult& r : routed.rounds) {
    r_answered += routed.answered(r);
    router_ns += static_cast<double>(r.router_cpu_ns);
    backend_ns += static_cast<double>(r.backend_cpu_ns);
    router_s += r.timed_s;
  }
  const std::string routed_answers =
      count(static_cast<std::size_t>(r_answered), "routed answers");
  report.add("cluster.router_cpu_us", router_ns / r_answered / 1e3, "us", routed_answers);
  report.add("cluster.router_busy_pct", 100.0 * router_ns / (router_s * 1e9), "%",
             count(routed.rounds.size(), "routed rounds"));
  report.add("cluster.backend_cpu_us", backend_ns / r_answered / 1e3, "us", routed_answers);
  report.add("cluster.ring_walk_ns", layer(rep, "cluster.ring_walk", 1), "ns",
             layer_calls(rep, "cluster.ring_walk"));
  report.add("cluster.fingerprint_us", layer(rep, "cluster.fingerprint", 1e-3), "us",
             layer_calls(rep, "cluster.fingerprint"));
  report.add("cluster.hop_us",
             1e6 / rps(routed.rounds.front()) - 1e6 / rps(direct.rounds.front()), "us",
             "2 rounds, round 0 routed vs direct");
  const StatsMap& rs = routed.rounds.front().router_stats;
  const double n0 = static_cast<double>(stat(rs, "node0_routed"));
  const double n1 = static_cast<double>(stat(rs, "node1_routed"));
  report.add("cluster.node_imbalance", std::max(n0, n1) / ((n0 + n1) / 2.0), "ratio",
             count(static_cast<std::size_t>(n0 + n1), "routed requests"));
  report.add("cluster.retried", static_cast<double>(stat(rs, "retried")), "count",
             "1 round, round 0 routed");

  const double measured_ns = serve_ns / answered;
  report.add("ledger.unexplained_pct",
             100.0 * (measured_ns - rep.path_ns_per_request) / measured_ns, "%",
             count(rep.requests, "replayed requests") + " vs " + per_answer);
  report.add("ledger.trace_overhead_pct", rep.trace_overhead_pct, "%",
             "3 passes each, median");
  report.add("loadgen.cpu_us", loadgen_ns / answered / 1e3, "us", per_answer);
}

/// The replay's layer table, largest self time first.
void print_ledger(const ReplayResult& rep, double measured_ns) {
  std::vector<std::pair<std::string, LayerCost>> rows(rep.layers.begin(),
                                                      rep.layers.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::cout << "ledger: serving CPU " << measured_ns / 1e3
            << " us/request measured, " << rep.path_ns_per_request / 1e3
            << " us/request replayed on the path\n";
  for (const auto& [name, cost] : rows) {
    std::cout << "  " << name << ": " << cost.self_ns / cost.calls << " ns x "
              << cost.calls << " calls\n";
  }
}

int run(int argc, char** argv) {
  treesched::CliArgs args(argc, argv);
  const Workload workload = parse_workload(args.get("workload", ""));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const int seconds = static_cast<int>(args.get_int("seconds", 10));
  const bool traced = args.get_int("trace", 0) != 0;
  Config config;
  config.server_bin = args.get("server", "");
  config.router_bin = args.get("router", "");
  config.workdir = args.get("workdir", ".");
  const std::string revision = args.get("revision", "");
  args.reject_unknown();
  if (config.server_bin.empty() || config.router_bin.empty() || seconds < 1) {
    throw std::invalid_argument("--server, --router and --seconds >= 1 are required");
  }

  std::cout << "perfbench workload=" << workload.name << " seed=" << seed
            << " seconds=" << seconds << " trace=" << traced << "\n";
  print_environment(revision);

  const int rounds = rounds_for(workload.mix, seconds);
  // hot/routed rounds are time-sized, so every run makes all of them.
  const int min_rounds =
      workload.mix == Mix::kHot ? rounds : std::min(rounds, kMinRounds);
  const double hot_seconds = hot_round_seconds(seconds);
  Report report;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  if (!traced) {
    Run run = run_rounds(config, workload, workload.routed, seed, rounds,
                         min_rounds, seconds, hot_seconds);
    const ReplayResult check =
        replay(workload, run.first_stream, run.first_answers, seed, false);
    attempted = run.totals.attempted;
    failed = run.totals.failed + check.mismatched;
    errors = run.totals.errors;
    errors.insert(errors.end(), check.errors.begin(), check.errors.end());
    std::cout << "checked " << check.checked
              << " served answers against in-process results\n";
    end_to_end(run.totals, report);
  } else {
    // Half the rounds on the workload's own topology, one round of the
    // same mix on the other (direct <-> routed), then the replay.
    Run main = run_rounds(config, workload, workload.routed, seed,
                          std::max(1, rounds / 2), 1, seconds / 2.0, hot_seconds / 2);
    Run other = run_rounds(config, workload, !workload.routed, seed, 1, 1, 0.0,
                           hot_seconds / 2);
    const ReplayResult rep =
        replay(workload, main.first_stream, main.first_answers, seed, true);
    write_spans(rep.spans, config.workdir + "/spans_" + workload.name + ".tsv");
    attempted = main.totals.attempted + other.totals.attempted;
    failed = main.totals.failed + other.totals.failed + rep.mismatched;
    for (const Totals* t : {&main.totals, &other.totals}) {
      errors.insert(errors.end(), t->errors.begin(), t->errors.end());
    }
    errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
    double serve_ns = 0, answered = 0;
    for (const RoundResult& r : main.totals.rounds) {
      serve_ns += static_cast<double>(r.backend_cpu_ns + r.router_cpu_ns);
      answered += main.totals.answered(r);
    }
    print_ledger(rep, serve_ns / answered);
    per_layer(workload, main.totals, other.totals, rep, report);
  }
  for (const std::string& e : errors) std::cout << "WRONG ANSWER: " << e << "\n";
  report.print(failed == 0, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // A server dying mid-send must surface as an error, not kill the run.
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return perfbench::run(argc, argv);
  } catch (const perfbench::StepError& e) {
    std::cout.flush();
    std::cerr << "perfbench: step failed: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
