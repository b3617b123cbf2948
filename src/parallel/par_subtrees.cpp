#include "parallel/par_subtrees.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "sequential/liu.hpp"
#include "sequential/postorder.hpp"
#include "util/heap.hpp"

namespace treesched {

namespace {

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

// BinaryHeap priority: the entry first in PQ order is on top.
struct LaterInPq {
  bool operator()(const PqEntry& a, const PqEntry& b) const { return b < a; }
};

// Algorithm 2's priority queue, held as its first min(p, size) entries
// sorted in PQ order over a heap of the rest. Every entry of `top_`
// precedes every entry of `rest_`, so the head and the sum of the p
// largest W are a scan of one flat array.
class SplitQueue {
 public:
  SplitQueue(int p, const PqEntry& root)
      : p_(static_cast<std::size_t>(p)), top_{root} {}

  [[nodiscard]] const PqEntry& head() const { return top_.front(); }

  /// Replaces the head by `children`, its children's entries. Only those
  /// ahead of the last entry of a full `top_`, and of those only the p
  /// first, can enter it: they are sorted and merged in, and whatever
  /// that pushes past p spills to the heap. O(p log p + d) for d
  /// children, plus O(log n) per entry pushed to the heap.
  void split_head(const std::vector<PqEntry>& children) {
    top_.erase(top_.begin());
    if (!rest_.empty()) top_.push_back(rest_.pop());
    incoming_.clear();
    for (const PqEntry& c : children) {
      if (top_.size() >= p_ && !top_.empty() && !(c < top_.back())) {
        rest_.push(c);
      } else {
        incoming_.push_back(c);
      }
    }
    if (incoming_.size() > p_) {
      const auto cut = incoming_.begin() + static_cast<std::ptrdiff_t>(p_);
      std::nth_element(incoming_.begin(), cut, incoming_.end());
      for (auto it = cut; it != incoming_.end(); ++it) rest_.push(*it);
      incoming_.erase(cut, incoming_.end());
    }
    std::sort(incoming_.begin(), incoming_.end());
    merged_.clear();
    std::merge(top_.begin(), top_.end(), incoming_.begin(), incoming_.end(),
               std::back_inserter(merged_));
    top_.swap(merged_);
    while (top_.size() > p_) {
      rest_.push(top_.back());
      top_.pop_back();
    }
  }

  /// Sum of the p largest W, added in PQ order.
  [[nodiscard]] double top_sum() const {
    double sum = 0.0;
    for (const PqEntry& e : top_) sum += e.W;
    return sum;
  }

 private:
  std::size_t p_;
  std::vector<PqEntry> top_;
  BinaryHeap<PqEntry, LaterInPq> rest_;
  std::vector<PqEntry> incoming_, merged_;  // split_head scratch
};

// Algorithm 2 given the subtree works W.
SplitResult split_with(const Tree& tree, const std::vector<double>& W,
                       int p) {
  // Cost scan: replay Algorithm 2, tracking the PQ, its total W and the
  // sum of its p largest W, and recording the heads it splits.
  const NodeId root = tree.root();
  SplitQueue pq(p, {W[root], tree.work(root), root});
  double pq_total = W[root];
  double seq_work = 0.0;
  std::vector<NodeId> popped;
  std::vector<PqEntry> children;

  auto cost_now = [&]() {
    // parallel time = heaviest subtree; sequential = split nodes + surplus
    return pq.head().W + seq_work + (pq_total - pq.top_sum());
  };

  std::size_t best_rank = 0;
  double best_cost = cost_now();  // Cost(0) = W_root
  while (true) {
    const PqEntry head = pq.head();
    if (!(head.W > tree.work(head.node))) break;  // head is a leaf
    pq_total -= head.W;
    seq_work += tree.work(head.node);
    children.clear();
    for (NodeId c : tree.children(head.node)) {
      children.push_back({W[c], tree.work(c), c});
      pq_total += W[c];
    }
    pq.split_head(children);
    popped.push_back(head.node);
    const double c = cost_now();
    if (c < best_cost) {
      best_cost = c;
      best_rank = popped.size();
    }
  }

  // The chosen split: its first best_rank heads are the split nodes, and
  // its PQ holds their children that were not split themselves (just the
  // root when nothing was split), in PQ order.
  SplitResult res;
  res.seq_nodes.assign(popped.begin(),
                       popped.begin() + static_cast<std::ptrdiff_t>(best_rank));
  std::vector<char> is_split(static_cast<std::size_t>(tree.size()), 0);
  for (NodeId v : res.seq_nodes) is_split[v] = 1;
  std::vector<PqEntry> roots;
  if (best_rank == 0) roots.push_back({W[root], tree.work(root), root});
  for (NodeId v : res.seq_nodes) {
    for (NodeId c : tree.children(v)) {
      if (!is_split[c]) roots.push_back({W[c], tree.work(c), c});
    }
  }
  std::sort(roots.begin(), roots.end());
  res.subtree_roots.reserve(roots.size());
  for (const PqEntry& e : roots) res.subtree_roots.push_back(e.node);
  res.predicted_makespan = best_cost;
  return res;
}

// Sequential traversal of a whole tree under the chosen algorithm.
std::vector<NodeId> sequential_order(const Tree& tree, SequentialAlgo algo) {
  switch (algo) {
    case SequentialAlgo::kOptimalPostorder:
      return postorder(tree, PostorderPolicy::kOptimal).order;
    case SequentialAlgo::kLiuExact:
      return liu_optimal_traversal(tree).order;
    case SequentialAlgo::kNaturalPostorder:
      return postorder(tree, PostorderPolicy::kNatural).order;
  }
  throw std::logic_error("unknown SequentialAlgo");
}

}  // namespace

SubtreeLayout group_by_subtree(const Tree& tree,
                               const std::vector<NodeId>& traversal,
                               std::span<const NodeId> roots) {
  // Label every node with its slice: a root carries its own k and every
  // other node its parent's, so a node under none of the roots falls in
  // the tail.
  const NodeId n = tree.size();
  const int tail = static_cast<int>(roots.size());
  std::vector<int> label(static_cast<std::size_t>(n), -1);
  for (int k = 0; k < tail; ++k) label[roots[k]] = k;
  for (auto it = traversal.rbegin(); it != traversal.rend(); ++it) {
    const NodeId v = *it;
    if (label[v] >= 0) continue;
    const NodeId parent = tree.parent(v);
    label[v] = parent == kNoNode ? tail : label[parent];
  }

  // Group the traversal by label, keeping its order.
  SubtreeLayout layout;
  layout.first.assign(static_cast<std::size_t>(tail) + 2, 0);
  for (NodeId v : traversal) ++layout.first[label[v] + 1];
  for (int k = 0; k <= tail; ++k) layout.first[k + 1] += layout.first[k];
  layout.order.resize(static_cast<std::size_t>(n));
  std::vector<std::size_t> cursor(layout.first.begin(),
                                  layout.first.end() - 1);
  for (NodeId v : traversal) layout.order[cursor[label[v]]++] = v;
  return layout;
}

double layout_slice(const Tree& tree, const SubtreeLayout& layout,
                    std::size_t k, int proc, double t, Schedule& s) {
  for (std::size_t j = layout.first[k]; j < layout.first[k + 1]; ++j) {
    const NodeId v = layout.order[j];
    s.start[v] = t;
    s.proc[v] = proc;
    t += tree.work(v);
  }
  return t;
}

SplitResult split_subtrees(const Tree& tree, int p) {
  if (p < 1) throw std::invalid_argument("split_subtrees: p < 1");
  if (tree.empty()) return {};
  return split_with(tree, tree.subtree_work(), p);
}

Schedule par_subtrees(const Tree& tree, int p, ParSubtreesOptions opts) {
  if (p < 1) throw std::invalid_argument("par_subtrees: p < 1");
  if (tree.empty()) return {};
  return par_subtrees(tree, p, sequential_order(tree, opts.sequential),
                      opts.optimized_packing);
}

Schedule par_subtrees(const Tree& tree, int p,
                      const std::vector<NodeId>& traversal,
                      bool optimized_packing) {
  if (p < 1) throw std::invalid_argument("par_subtrees: p < 1");
  const NodeId n = tree.size();
  Schedule s(n);
  if (n == 0) return s;

  const std::vector<double> W = tree.subtree_work();
  const SplitResult split = split_with(tree, W, p);
  const std::vector<NodeId>& roots = split.subtree_roots;

  // The processor of each parallel subtree k, in layout order. The
  // subtree roots are already sorted by non-increasing W (PQ order). Only
  // the first min(p, #subtrees) processors are ever used: for subtree k,
  // LPT always finds an unloaded processor among the first k + 1.
  const int procs =
      static_cast<int>(std::min(roots.size(), static_cast<std::size_t>(p)));
  std::vector<int> root_proc;
  if (!optimized_packing) {
    // Algorithm 1: the p heaviest subtrees run in parallel, one per
    // processor; the rest join the sequential tail.
    for (int k = 0; k < procs; ++k) root_proc.push_back(k);
  } else {
    // ParSubtreesOptim: LPT-pack all subtrees onto the processors, each
    // onto the least loaded one (lowest id on ties).
    BinaryHeap<std::pair<double, int>, std::greater<>> load;
    load.reserve(static_cast<std::size_t>(procs));
    for (int q = 0; q < procs; ++q) load.push({0.0, q});
    root_proc.reserve(roots.size());
    for (NodeId r : roots) {
      auto [ready, q] = load.pop();
      root_proc.push_back(q);
      load.push({ready + W[r], q});
    }
  }

  // Only the subtrees with a processor get a slice: the split nodes and
  // the surplus subtrees fall in the tail.
  const int tail = static_cast<int>(root_proc.size());
  const SubtreeLayout layout = group_by_subtree(
      tree, traversal,
      std::span<const NodeId>(roots.data(), root_proc.size()));

  // Lay out the parallel phase, subtree after subtree on each processor.
  std::vector<double> proc_ready(static_cast<std::size_t>(procs), 0.0);
  for (int k = 0; k < tail; ++k) {
    const int q = root_proc[k];
    proc_ready[q] = layout_slice(tree, layout, k, q, proc_ready[q], s);
  }
  double t_par = 0.0;
  for (double t : proc_ready) t_par = std::max(t_par, t);

  // Sequential tail: surplus subtrees + split nodes, in the order induced by
  // a memory-minimizing traversal of the whole tree restricted to them.
  layout_slice(tree, layout, tail, 0, t_par, s);
  return s;
}

Schedule par_subtrees_optim(const Tree& tree, int p, SequentialAlgo seq) {
  ParSubtreesOptions opts;
  opts.sequential = seq;
  opts.optimized_packing = true;
  return par_subtrees(tree, p, opts);
}

}  // namespace treesched
