#include "campaign/runner.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/lower_bounds.hpp"
#include "sched/validate.hpp"
#include "sequential/postorder.hpp"
#include "util/parallel.hpp"

namespace treesched {

std::size_t ScenarioRecord::index_of(const std::string& algo) const {
  for (std::size_t k = 0; k < algos.size(); ++k) {
    if (algos[k] == algo) return k;
  }
  throw std::invalid_argument("ScenarioRecord: algorithm \"" + algo +
                              "\" not in this campaign");
}

bool ScenarioRecord::has(const std::string& algo) const {
  for (const std::string& a : algos) {
    if (a == algo) return true;
  }
  return false;
}

std::vector<ScenarioRecord> run_campaign(
    const std::vector<DatasetEntry>& dataset, const CampaignParams& params) {
  SchedulingService service;
  return run_campaign(dataset, params, service);
}

std::vector<ScenarioRecord> run_campaign(
    const std::vector<DatasetEntry>& dataset, const CampaignParams& params,
    SchedulingService& service) {
  const std::vector<std::string> algos = params.algorithms.empty()
                                             ? default_campaign_algorithms()
                                             : params.algorithms;
  // Resolve all names up front: unknown names fail before any work.
  for (const std::string& name : algos) {
    (void)SchedulerRegistry::instance().create(name);
  }
  // Intern every tree once; scenarios share the immutable instances.
  std::vector<TreeHandle> handles;
  handles.reserve(dataset.size());
  for (const DatasetEntry& entry : dataset) {
    handles.push_back(service.intern(entry.tree));
  }
  // The memory lower bound is p-invariant: compute it once per tree
  // instead of once per (tree, p) scenario.
  std::vector<MemSize> lb_memory(dataset.size());
  parallel_for(dataset.size(), [&](std::size_t ti) {
    lb_memory[ti] = best_postorder_memory(dataset[ti].tree);
  });

  std::vector<ScenarioRecord> records(dataset.size() *
                                      params.processor_counts.size());

  // Builds records[idx] from its tickets, one per algorithm (failed
  // tickets rethrow the scheduler's own exception through unwrap() — an
  // oracle on an oversized tree, a cap below the floor, ... — which lands
  // on the campaign caller, the pre-service behavior).
  const auto build_record = [&](std::size_t idx, Ticket* row) {
    const std::size_t ti = idx / params.processor_counts.size();
    const std::size_t pi = idx % params.processor_counts.size();
    const DatasetEntry& entry = dataset[ti];
    const int p = params.processor_counts[pi];
    ScenarioRecord rec;
    rec.tree_name = entry.name;
    rec.tree_size = entry.tree.size();
    rec.p = p;
    rec.lb_makespan = makespan_lower_bound(entry.tree, p);
    rec.lb_memory = lb_memory[ti];
    rec.algos = algos;
    for (std::size_t k = 0; k < algos.size(); ++k) {
      const ScheduleResponse resp = unwrap(row[k].wait());
      const ScheduleCheck v = check_schedule(entry.tree, *resp.schedule, p);
      if (!v.ok) {
        throw std::logic_error("campaign: invalid schedule from " +
                               algos[k] + " on " + entry.name + ": " +
                               v.error);
      }
      rec.makespan.push_back(resp.makespan);
      rec.memory.push_back(resp.peak_memory);
    }
    records[idx] = std::move(rec);
  };

  const auto request_for = [&](std::size_t idx, std::size_t k) {
    ScheduleRequest req;
    req.tree = handles[idx / params.processor_counts.size()];
    req.algo = algos[k];
    req.p = params.processor_counts[idx % params.processor_counts.size()];
    req.want_schedule = true;
    req.priority = params.priority;
    return req;
  };

  // Submit through the admission queue at params.priority in bounded
  // windows of scenarios — the queue keeps a real backlog (so an
  // interactive probe arriving at a shared service mid-campaign is the
  // next request any worker answers) while the schedules pinned live by
  // unconsumed responses stay bounded by the window, not the campaign
  // (every response carries its full schedule for the check).
  constexpr std::size_t kWindowScenarios = 32;
  for (std::size_t window = 0; window < records.size();
       window += kWindowScenarios) {
    const std::size_t end =
        std::min(records.size(), window + kWindowScenarios);
    std::vector<Ticket> tickets;
    tickets.reserve((end - window) * algos.size());
    for (std::size_t idx = window; idx < end; ++idx) {
      for (std::size_t k = 0; k < algos.size(); ++k) {
        tickets.push_back(service.submit(request_for(idx, k)));
      }
    }
    parallel_for(end - window, [&](std::size_t off) {
      build_record(window + off, &tickets[off * algos.size()]);
    });
  }
  return records;
}

}  // namespace treesched
