#pragma once
// Reference implementations kept as test oracles: the event replay and
// ParSubtrees as they were before the simulator switched to a radix-sorted
// event order and SplitSubtrees to a top-p array over a heap, and the
// postorder as it was before it sorted children in one reused buffer.
// They are the straightforward versions (comparator sorts; an ordered
// multiset replayed once to score the splits and once more to rebuild the
// chosen one; one extracted subtree and one traversal per parallel
// subtree; one key vector and one std::stable_sort per inner node), and
// the library must agree with them bit for bit
// (tests/test_differential.cpp). The replay has one later change, the
// library's zero-duration rule: a zero-length task's start applies before
// its own finish, and it starts and finishes before its parent starts.

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/schedule.hpp"
#include "core/simulator.hpp"
#include "core/tree.hpp"
#include "parallel/par_subtrees.hpp"
#include "sequential/liu.hpp"
#include "sequential/postorder.hpp"

namespace treesched::reference {

inline SimulationResult simulate(const Tree& tree, const Schedule& s,
                                 const SimulationOptions& opts = {}) {
  const NodeId n = tree.size();
  if (s.size() != n) {
    throw std::invalid_argument("simulate: schedule size != tree size");
  }
  SimulationResult res;
  if (n == 0) return res;

  // Two event streams sorted by time: starts and finishes. At equal times,
  // finishes are applied before starts so that a task may begin exactly when
  // its child ends (and memory is not double counted across the boundary).
  std::vector<NodeId> by_start(n), by_finish(n);
  std::iota(by_start.begin(), by_start.end(), 0);
  by_finish = by_start;
  std::sort(by_start.begin(), by_start.end(), [&](NodeId a, NodeId b) {
    if (s.start[a] != s.start[b]) return s.start[a] < s.start[b];
    return a < b;
  });
  std::sort(by_finish.begin(), by_finish.end(), [&](NodeId a, NodeId b) {
    double fa = s.finish(tree, a), fb = s.finish(tree, b);
    if (fa != fb) return fa < fb;
    return a < b;
  });

  std::vector<char> started(static_cast<std::size_t>(n), 0);
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  // due[f]: the sweep passed f's finish before f started (a zero-length
  // task); its finish applies right after its start.
  std::vector<char> due(static_cast<std::size_t>(n), 0);
  MemSize mem = 0;
  MemSize peak = 0;
  std::size_t fi = 0;  // cursor in by_finish

  auto record = [&](double t) {
    if (opts.record_profile) {
      if (!res.profile.empty() && res.profile.back().time == t) {
        res.profile.back().mem = mem;
      } else {
        res.profile.push_back({t, mem});
      }
    }
  };
  auto finish = [&](NodeId f) {
    mem -= tree.exec_size(f);
    for (NodeId c : tree.children(f)) mem -= tree.output_size(c);
    done[f] = 1;
    record(s.finish(tree, f));
  };
  // Starts v; a due child that has not started is a zero-length task at
  // this instant, and starts and finishes first.
  std::function<void(NodeId)> start = [&](NodeId v) {
    for (NodeId c : tree.children(v)) {
      if (!done[c] && due[c] && !started[c]) start(c);
      if (!done[c]) {
        std::ostringstream os;
        os << "simulate: task " << v << " starts at " << s.start[v]
           << " but child " << c << " has not finished";
        throw std::invalid_argument(os.str());
      }
    }
    started[v] = 1;
    mem += tree.exec_size(v) + tree.output_size(v);
    peak = std::max(peak, mem);
    record(s.start[v]);
    if (due[v]) finish(v);
  };

  const double eps = 1e-9;
  for (NodeId idx : by_start) {
    if (started[idx]) continue;  // ran ahead of its parent
    const double t = s.start[idx];
    const double tol = eps * std::max(1.0, t);
    // Apply all finishes at time <= t (+tolerance).
    while (fi < by_finish.size() &&
           s.finish(tree, by_finish[fi]) <= t + tol) {
      NodeId f = by_finish[fi++];
      if (!started[f]) {
        due[f] = 1;
      } else {
        finish(f);
      }
    }
    start(idx);
  }
  // Drain remaining finishes.
  while (fi < by_finish.size()) finish(by_finish[fi++]);
  res.makespan = s.makespan(tree);
  res.peak_memory = peak;
  res.final_memory = mem;  // = f_root
  return res;
}

inline PostorderResult postorder(const Tree& tree, PostorderPolicy policy) {
  struct ChildKey {
    NodeId node;
    MemSize peak;
    MemSize resid;
    double work;
  };
  PostorderResult res;
  const NodeId n = tree.size();
  res.order.reserve(n);
  if (n == 0) return res;

  std::vector<MemSize> peak(static_cast<std::size_t>(n), 0);
  std::vector<double> subwork;
  if (policy == PostorderPolicy::kByWork) subwork = tree.subtree_work();

  // head/next intrusive lists holding each subtree's traversal so that
  // concatenation is O(1) and total construction O(n log n).
  std::vector<NodeId> head(static_cast<std::size_t>(n), kNoNode);
  std::vector<NodeId> tail(static_cast<std::size_t>(n), kNoNode);
  std::vector<NodeId> next(static_cast<std::size_t>(n), kNoNode);

  for (NodeId i : tree.natural_postorder()) {
    auto ch = tree.children(i);
    if (ch.empty()) {
      peak[i] = tree.exec_size(i) + tree.output_size(i);
      head[i] = tail[i] = i;
      continue;
    }
    std::vector<ChildKey> keys;
    keys.reserve(ch.size());
    for (NodeId c : ch) {
      keys.push_back({c, peak[c], tree.output_size(c),
                      subwork.empty() ? 0.0 : subwork[c]});
    }
    switch (policy) {
      case PostorderPolicy::kOptimal:
        std::stable_sort(keys.begin(), keys.end(),
                         [](const ChildKey& a, const ChildKey& b) {
                           // non-increasing (P - f); signed comparison via
                           // cross-addition to avoid unsigned underflow.
                           return a.peak + b.resid > b.peak + a.resid;
                         });
        break;
      case PostorderPolicy::kByPeak:
        std::stable_sort(keys.begin(), keys.end(),
                         [](const ChildKey& a, const ChildKey& b) {
                           return a.peak > b.peak;
                         });
        break;
      case PostorderPolicy::kByOutput:
        std::stable_sort(keys.begin(), keys.end(),
                         [](const ChildKey& a, const ChildKey& b) {
                           return a.resid > b.resid;
                         });
        break;
      case PostorderPolicy::kByWork:
        std::stable_sort(keys.begin(), keys.end(),
                         [](const ChildKey& a, const ChildKey& b) {
                           return a.work > b.work;
                         });
        break;
      case PostorderPolicy::kNatural:
        break;
    }
    MemSize resident = 0;  // outputs of already-processed children
    MemSize pk = 0;
    for (const ChildKey& k : keys) {
      pk = std::max(pk, resident + k.peak);
      resident += k.resid;
    }
    pk = std::max(pk, resident + tree.exec_size(i) + tree.output_size(i));
    peak[i] = pk;
    // Concatenate child lists in chosen order, then append i.
    NodeId h = kNoNode, t = kNoNode;
    for (const ChildKey& k : keys) {
      if (h == kNoNode) {
        h = head[k.node];
        t = tail[k.node];
      } else {
        next[t] = head[k.node];
        t = tail[k.node];
      }
    }
    next[t] = i;
    head[i] = h;
    tail[i] = i;
  }

  const NodeId r = tree.root();
  for (NodeId cur = head[r]; cur != kNoNode; cur = next[cur]) {
    res.order.push_back(cur);
  }
  if (static_cast<NodeId>(res.order.size()) != n) {
    throw std::logic_error("postorder: traversal does not cover the tree");
  }
  res.peak = peak[r];
  return res;
}

namespace detail {

// PQ entry: ordered by non-increasing W, ties by non-increasing w, then id
// for determinism (paper §5.1).
struct PqEntry {
  double W;
  double w;
  NodeId node;

  friend bool operator<(const PqEntry& a, const PqEntry& b) {
    if (a.W != b.W) return a.W > b.W;
    if (a.w != b.w) return a.w > b.w;
    return a.node < b.node;
  }
};

// One pass of Algorithm 2 up to `steps` splits; returns the PQ content and
// seqSet at that point. Shared by the cost scan and the final rebuild.
struct SplitState {
  std::multiset<PqEntry> pq;
  std::vector<NodeId> seq_nodes;
  double seq_work = 0.0;
};

inline SplitState split_to_rank(const Tree& tree, const std::vector<double>& W,
                         int steps) {
  SplitState st;
  st.pq.insert({W[tree.root()], tree.work(tree.root()), tree.root()});
  for (int s = 0; s < steps; ++s) {
    const PqEntry head = *st.pq.begin();
    st.pq.erase(st.pq.begin());
    st.seq_nodes.push_back(head.node);
    st.seq_work += tree.work(head.node);
    for (NodeId c : tree.children(head.node)) {
      st.pq.insert({W[c], tree.work(c), c});
    }
  }
  return st;
}

// Sequential traversal of a whole tree under the chosen algorithm.
inline std::vector<NodeId> sequential_order(const Tree& tree, SequentialAlgo algo) {
  switch (algo) {
    case SequentialAlgo::kOptimalPostorder:
      return treesched::postorder(tree, PostorderPolicy::kOptimal).order;
    case SequentialAlgo::kLiuExact:
      return liu_optimal_traversal(tree).order;
    case SequentialAlgo::kNaturalPostorder:
      return treesched::postorder(tree, PostorderPolicy::kNatural).order;
  }
  throw std::logic_error("unknown SequentialAlgo");
}

}  // namespace detail

inline SplitResult split_subtrees(const Tree& tree, int p) {
  using namespace detail;
  if (p < 1) throw std::invalid_argument("split_subtrees: p < 1");
  if (tree.empty()) return {};
  const std::vector<double> W = tree.subtree_work();

  // Cost scan: replay Algorithm 2, tracking the PQ as an ordered multiset,
  // its total W, and the sum of the p largest W (O(p) refresh per step).
  std::multiset<PqEntry> pq;
  pq.insert({W[tree.root()], tree.work(tree.root()), tree.root()});
  double pq_total = W[tree.root()];
  double seq_work = 0.0;

  auto cost_now = [&]() {
    double top_p = 0.0;
    int k = 0;
    double head_w = 0.0;
    for (auto it = pq.begin(); it != pq.end() && k < p; ++it, ++k) {
      top_p += it->W;
      if (k == 0) head_w = it->W;
    }
    // parallel time = heaviest subtree; sequential = split nodes + surplus
    return head_w + seq_work + (pq_total - top_p);
  };

  int best_rank = 0;
  double best_cost = cost_now();  // Cost(0) = W_root
  int rank = 0;
  while (true) {
    const PqEntry head = *pq.begin();
    if (!(head.W > tree.work(head.node))) break;  // head is a leaf
    pq.erase(pq.begin());
    pq_total -= head.W;
    seq_work += tree.work(head.node);
    for (NodeId c : tree.children(head.node)) {
      pq.insert({W[c], tree.work(c), c});
      pq_total += W[c];
    }
    ++rank;
    const double c = cost_now();
    if (c < best_cost) {
      best_cost = c;
      best_rank = rank;
    }
  }

  // Rebuild the chosen split.
  SplitState st = split_to_rank(tree, W, best_rank);
  SplitResult res;
  res.seq_nodes = std::move(st.seq_nodes);
  res.subtree_roots.reserve(st.pq.size());
  for (const PqEntry& e : st.pq) res.subtree_roots.push_back(e.node);
  res.predicted_makespan = best_cost;
  return res;
}

inline Schedule par_subtrees(const Tree& tree, int p,
                             ParSubtreesOptions opts = {}) {
  using namespace detail;
  if (p < 1) throw std::invalid_argument("par_subtrees: p < 1");
  const NodeId n = tree.size();
  Schedule s(n);
  if (n == 0) return s;

  const SplitResult split = reference::split_subtrees(tree, p);
  const std::vector<double> W = tree.subtree_work();

  // Which subtrees run in the parallel phase, and on which processor.
  // subtree_roots are already sorted by non-increasing W (PQ order).
  std::vector<NodeId> parallel_roots, surplus_roots;
  std::vector<int> root_proc;
  std::vector<double> proc_ready(static_cast<std::size_t>(p), 0.0);
  if (!opts.optimized_packing) {
    // Algorithm 1: the p heaviest subtrees run in parallel, one per
    // processor; the rest join the sequential tail.
    for (std::size_t k = 0; k < split.subtree_roots.size(); ++k) {
      if (static_cast<int>(k) < p) {
        parallel_roots.push_back(split.subtree_roots[k]);
        root_proc.push_back(static_cast<int>(k));
      } else {
        surplus_roots.push_back(split.subtree_roots[k]);
      }
    }
  } else {
    // ParSubtreesOptim: LPT-pack all subtrees onto the p processors.
    for (NodeId r : split.subtree_roots) {
      int best = 0;
      for (int q = 1; q < p; ++q) {
        if (proc_ready[q] < proc_ready[best]) best = q;
      }
      parallel_roots.push_back(r);
      root_proc.push_back(best);
      proc_ready[best] += W[r];
    }
  }

  // Lay out the parallel phase.
  std::fill(proc_ready.begin(), proc_ready.end(), 0.0);
  for (std::size_t k = 0; k < parallel_roots.size(); ++k) {
    const NodeId r = parallel_roots[k];
    const int q = root_proc[k];
    std::vector<NodeId> old_ids;
    const Tree sub = tree.subtree(r, &old_ids);
    const std::vector<NodeId> order = sequential_order(sub, opts.sequential);
    double t = proc_ready[q];
    for (NodeId local : order) {
      const NodeId global = old_ids[local];
      s.start[global] = t;
      s.proc[global] = q;
      t += tree.work(global);
    }
    proc_ready[q] = t;
  }
  double t_par = 0.0;
  for (double t : proc_ready) t_par = std::max(t_par, t);

  // Sequential tail: surplus subtrees + split nodes, in the order induced by
  // a memory-minimizing traversal of the whole tree restricted to them
  // (filtering a valid traversal keeps children before parents).
  std::vector<char> in_tail(static_cast<std::size_t>(n), 0);
  for (NodeId r : surplus_roots) {
    std::vector<NodeId> stack{r};
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      in_tail[v] = 1;
      for (NodeId c : tree.children(v)) stack.push_back(c);
    }
  }
  for (NodeId v : split.seq_nodes) in_tail[v] = 1;

  double t = t_par;
  for (NodeId v : sequential_order(tree, opts.sequential)) {
    if (!in_tail[v]) continue;
    s.start[v] = t;
    s.proc[v] = 0;
    t += tree.work(v);
  }
  return s;
}

inline Schedule par_subtrees_optim(
    const Tree& tree, int p,
    SequentialAlgo seq = SequentialAlgo::kOptimalPostorder) {
  ParSubtreesOptions opts;
  opts.sequential = seq;
  opts.optimized_packing = true;
  return reference::par_subtrees(tree, p, opts);
}

}  // namespace treesched::reference
