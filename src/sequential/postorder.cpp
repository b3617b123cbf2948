#include "sequential/postorder.hpp"

#include <algorithm>
#include <stdexcept>

namespace treesched {

namespace {

// Signed peak-minus-residual used for the optimal rule; f can exceed P only
// never (P >= n_i + f_i >= f_i and residual = f_i), but keep signed math to
// be safe with MemSize arithmetic.
struct ChildKey {
  NodeId node;
  MemSize peak;
  MemSize resid;
  double work;
};

// Fan-ins up to this size are sorted in place by insertion; wider ones by
// std::stable_sort, so a wide fork stays O(n log n). Both sorts are
// stable, and a stable sort's output depends only on its comparator, so
// the order is the same either way.
constexpr std::size_t kInsertionSortMax = 16;

template <typename Less>
void stable_sort_keys(std::vector<ChildKey>& keys, Less less) {
  if (keys.size() > kInsertionSortMax) {
    std::stable_sort(keys.begin(), keys.end(), less);
    return;
  }
  for (std::size_t j = 1; j < keys.size(); ++j) {
    const ChildKey key = keys[j];
    std::size_t i = j;
    for (; i > 0 && less(key, keys[i - 1]); --i) keys[i] = keys[i - 1];
    keys[i] = key;
  }
}

}  // namespace

PostorderResult postorder(const Tree& tree, PostorderPolicy policy) {
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
  std::vector<ChildKey> keys;  // one node's children, reused
  keys.reserve(static_cast<std::size_t>(tree.max_degree()));

  for (NodeId i : tree.natural_postorder()) {
    auto ch = tree.children(i);
    if (ch.empty()) {
      peak[i] = tree.exec_size(i) + tree.output_size(i);
      head[i] = tail[i] = i;
      continue;
    }
    keys.clear();
    for (NodeId c : ch) {
      keys.push_back({c, peak[c], tree.output_size(c),
                      subwork.empty() ? 0.0 : subwork[c]});
    }
    switch (policy) {
      case PostorderPolicy::kOptimal:
        stable_sort_keys(keys, [](const ChildKey& a, const ChildKey& b) {
          // non-increasing (P - f); signed comparison via cross-addition
          // to avoid unsigned underflow.
          return a.peak + b.resid > b.peak + a.resid;
        });
        break;
      case PostorderPolicy::kByPeak:
        stable_sort_keys(keys, [](const ChildKey& a, const ChildKey& b) {
          return a.peak > b.peak;
        });
        break;
      case PostorderPolicy::kByOutput:
        stable_sort_keys(keys, [](const ChildKey& a, const ChildKey& b) {
          return a.resid > b.resid;
        });
        break;
      case PostorderPolicy::kByWork:
        stable_sort_keys(keys, [](const ChildKey& a, const ChildKey& b) {
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

MemSize best_postorder_memory(const Tree& tree) {
  return postorder(tree, PostorderPolicy::kOptimal).peak;
}

std::vector<NodeId> order_positions(const std::vector<NodeId>& order) {
  std::vector<NodeId> pos(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    pos[order[k]] = static_cast<NodeId>(k);
  }
  return pos;
}

}  // namespace treesched
