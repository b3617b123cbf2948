#pragma once
// Campaign runner: executes a roster of registered scheduling algorithms
// on every (tree, p) scenario, validates and scores the schedules, and
// collects per-scenario records — the raw material behind Table 1 and
// Figures 6-8.
//
// Algorithms are selected by SchedulerRegistry name; the default roster is
// default_campaign_algorithms() (paper heuristics + memory-capped
// schedulers + sequential baselines, oracles excluded).

#include <cstddef>
#include <string>
#include <vector>

#include "campaign/dataset.hpp"
#include "core/schedule.hpp"
#include "core/tree.hpp"
#include "sched/registry.hpp"
#include "service/service.hpp"

namespace treesched {

/// One scenario = (tree, p); stores each algorithm's (makespan, memory)
/// plus the lower bounds, mirroring one dot per algorithm in Figure 6.
struct ScenarioRecord {
  std::string tree_name;
  NodeId tree_size = 0;
  int p = 0;
  double lb_makespan = 0.0;        ///< max(W/p, critical path)
  MemSize lb_memory = 0;           ///< best sequential postorder peak
  std::vector<std::string> algos;  ///< registry names, campaign order
  std::vector<double> makespan;    ///< indexed like algos
  std::vector<MemSize> memory;     ///< indexed like algos

  /// Position of `algo` in `algos`. Throws std::invalid_argument when the
  /// algorithm was not part of the campaign.
  [[nodiscard]] std::size_t index_of(const std::string& algo) const;
  [[nodiscard]] bool has(const std::string& algo) const;
};

struct CampaignParams {
  std::vector<int> processor_counts{2, 4, 8, 16, 32};
  /// SchedulerRegistry names to run; empty = default_campaign_algorithms().
  std::vector<std::string> algorithms;
  /// Admission class for the campaign's requests. Campaigns are sweeps,
  /// not probes: they default to kBulk so a service shared with
  /// interactive clients keeps answering those first.
  Priority priority = Priority::kBulk;
};

/// Runs every selected algorithm on every dataset entry and processor
/// count through a private SchedulingService, submitting through the
/// service's admission queue at params.priority (kBulk, so interactive
/// probes against a shared service overtake the sweep), and checks every
/// schedule with check_schedule (the campaign doubles as an integration
/// test): an invalid one throws std::logic_error. Scenario order is
/// deterministic, and the records are bit-identical to direct
/// SchedulerRegistry calls — the service only amortizes: sequential-only
/// algorithms are computed once per tree and answered from cache across
/// the whole processor sweep (p sweeps that reach the same key at once
/// compute it more than once). Throws std::invalid_argument up front on
/// unknown algorithm names.
std::vector<ScenarioRecord> run_campaign(
    const std::vector<DatasetEntry>& dataset, const CampaignParams& params);

/// Same, but through a caller-owned service: repeated campaigns (ablation
/// sweeps, report reruns) share its instance store and result cache.
std::vector<ScenarioRecord> run_campaign(
    const std::vector<DatasetEntry>& dataset, const CampaignParams& params,
    SchedulingService& service);

}  // namespace treesched
