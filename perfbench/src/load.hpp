#pragma once
// One round of a workload against real serving processes: spawn one
// schedule_server (or two behind a schedule_router), wait until they are
// ready, warm up, drive the timed closed loop from at most two
// connections, read the serving processes from outside, and stop them
// with SIGTERM. Every answer is checked as it arrives.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct Config {
  std::string server_bin;
  std::string router_bin;
  std::string workdir;  ///< child stderr logs and span dumps go here
};

/// What the servers answered for one pool key (hot: the warm-up answer)
/// or one stream request (cold, capped).
struct Answer {
  bool received = false;
  double makespan = 0.0;
  std::uint64_t peak_memory = 0;
};

using StatsMap = std::map<std::string, std::uint64_t>;

struct RoundResult {
  double setup_s = 0.0;   ///< spawn to ready, plus warm-up
  double timed_s = 0.0;   ///< the closed loop's wall time
  double round_s = 0.0;   ///< spawn to the end of the timed phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<float> latency_us;
  std::vector<float> interactive_us;
  std::vector<Answer> answers;  ///< indexed like Stream::requests
  std::vector<std::string> errors;  ///< first few wrong answers, described
  double rss_mb = 0.0;  ///< summed VmHWM of the serving processes

  // CPU of the serving processes (schedstat), ns.
  std::uint64_t io_cpu_ns = 0;         ///< node main threads, timed phase
  std::uint64_t backend_cpu_ns = 0;    ///< all node threads, timed phase
  std::uint64_t pool_cpu_round_ns = 0; ///< node pool threads, whole round
  std::size_t pool_threads = 0;
  std::uint64_t router_cpu_ns = 0;     ///< router, timed phase
  std::uint64_t loadgen_cpu_ns = 0;    ///< load threads, timed phase
  int nodes = 1;

  /// `stats` of the nodes, summed, before and after the timed phase;
  /// `stats_max` keeps the per-node maximum (for quantile keys).
  StatsMap stats_before, stats_after, stats_max;
  StatsMap router_stats;  ///< after the timed phase (routed only)
};

/// Runs one round. Wrong answers are counted in `failed`; a step that
/// cannot complete (spawn, readiness, a lost connection, a drain) throws
/// StepError after stopping every process the round started.
RoundResult run_round(const Config& config, const Workload& workload,
                      bool routed, const Stream& stream, std::uint64_t seed,
                      int round, double hot_seconds);

}  // namespace perfbench
