#include "parallel/capped_subtrees.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/simulator.hpp"
#include "sequential/postorder.hpp"

namespace treesched {

CappedSubtreesPlan capped_subtrees_plan(const Tree& tree, int p) {
  if (p < 1) throw std::invalid_argument("capped_subtrees_plan: p < 1");
  CappedSubtreesPlan plan;
  plan.p = p;
  if (tree.empty()) return plan;
  plan.roots = split_subtrees(tree, p).subtree_roots;
  const auto W = tree.subtree_work();
  std::sort(plan.roots.begin(), plan.roots.end(), [&](NodeId a, NodeId b) {
    if (W[a] != W[b]) return W[a] > W[b];
    return a < b;
  });
  PostorderResult po = postorder(tree, PostorderPolicy::kOptimal);
  plan.postorder_peak = po.peak;
  plan.layout = group_by_subtree(tree, po.order, plan.roots);
  plan.peak.reserve(plan.roots.size());
  const std::span<const NodeId> order(plan.layout.order);
  for (std::size_t k = 0; k < plan.roots.size(); ++k) {
    const std::size_t first = plan.layout.first[k];
    plan.peak.push_back(sequential_peak_memory(
        tree, order.subspan(first, plan.layout.first[k + 1] - first)));
  }
  return plan;
}

std::optional<CappedSubtreesResult> capped_subtrees_schedule(
    const Tree& tree, const CappedSubtreesPlan& plan, MemSize cap) {
  const NodeId n = tree.size();
  CappedSubtreesResult res;
  res.schedule = Schedule(n);
  if (n == 0) return res;
  const std::size_t subs = plan.roots.size();

  struct Running {
    double finish;
    int proc;
    std::size_t idx;
  };
  std::vector<Running> running;
  std::vector<int> idle;
  for (int q = plan.p - 1; q >= 0; --q) idle.push_back(q);
  MemSize committed = 0;  // running peaks + finished outputs
  double now = 0.0;
  std::size_t done = 0;
  std::size_t next = 0;  // subtrees start strictly in weight order

  // Strict in-order admission keeps {done + running} a weight-order
  // prefix, which makes capped_subtrees_min_cap a true feasibility floor:
  // whenever the machine drains, committed is exactly the prefix's output
  // sum, and the floor guarantees the next subtree fits.
  auto try_start = [&]() {
    while (next < subs && !idle.empty() &&
           committed + plan.peak[next] <= cap) {
      const std::size_t i = next++;
      const int proc = idle.back();
      idle.pop_back();
      const double t = layout_slice(tree, plan.layout, i, proc, now,
                                    res.schedule);
      committed += plan.peak[i];
      running.push_back({t, proc, i});
      res.max_parallelism =
          std::max(res.max_parallelism, static_cast<int>(running.size()));
    }
  };

  try_start();
  while (done < subs) {
    if (running.empty()) return std::nullopt;  // nothing fits: infeasible
    auto it = std::min_element(running.begin(), running.end(),
                               [](const Running& a, const Running& b) {
                                 if (a.finish != b.finish) {
                                   return a.finish < b.finish;
                                 }
                                 return a.idx < b.idx;
                               });
    const Running fin = *it;
    running.erase(it);
    now = std::max(now, fin.finish);
    idle.push_back(fin.proc);
    committed -= plan.peak[fin.idx];
    committed += tree.output_size(plan.roots[fin.idx]);
    ++done;
    try_start();
  }

  // The sequential tail (the split nodes), on processor 0.
  layout_slice(tree, plan.layout, subs, 0, now, res.schedule);

  // Exact audit: the reservation invariant covers the parallel phase, the
  // simulation additionally covers the tail (whose base holds every
  // subtree output).
  if (simulate(tree, res.schedule).peak_memory <= cap) return res;
  // A zero-length task that starts with another task at one instant can
  // replay above the reservation: the replay orders equal times by id, not
  // by subtree. The serialized run, whose peak the floor covers, answers
  // every cap at or above the floor.
  if (capped_subtrees_min_cap(tree, plan) > cap) return std::nullopt;
  res.schedule = sequential_schedule(tree, plan.layout.order);
  res.max_parallelism = 1;
  return res;
}

std::optional<CappedSubtreesResult> capped_subtrees_schedule(
    const Tree& tree, int p, MemSize cap) {
  if (p < 1) throw std::invalid_argument("capped_subtrees_schedule: p < 1");
  return capped_subtrees_schedule(tree, capped_subtrees_plan(tree, p), cap);
}

MemSize capped_subtrees_min_cap(const Tree& tree,
                                const CappedSubtreesPlan& plan) {
  if (tree.empty()) return 0;
  // Reservation floor of the fully serialized run (subtrees one at a time
  // in weight order): the scheduler charges a running subtree its full
  // peak, on top of the outputs of the subtrees already finished.
  MemSize floor = 0;
  MemSize done_outputs = 0;
  for (std::size_t k = 0; k < plan.roots.size(); ++k) {
    floor = std::max(floor, done_outputs + plan.peak[k]);
    done_outputs += tree.output_size(plan.roots[k]);
  }
  // Tail floor: exact peak of the serialized layout, which is the
  // layout's order itself.
  return std::max(
      floor,
      simulate(tree, sequential_schedule(tree, plan.layout.order))
          .peak_memory);
}

MemSize capped_subtrees_min_cap(const Tree& tree, int p) {
  return capped_subtrees_min_cap(tree, capped_subtrees_plan(tree, p));
}

}  // namespace treesched
