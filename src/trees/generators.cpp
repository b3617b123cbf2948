#include "trees/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace treesched {

namespace {
// Pebble-game weights: f=1, n=0, w=1.
constexpr MemSize kPebbleOut = 1;
constexpr MemSize kPebbleExec = 0;
constexpr double kPebbleWork = 1.0;
}  // namespace

// ---------------------------------------------------------------------------
// Figure 1 — 3-Partition gadget.
// Layout: node 0 = root; nodes 1..3m = N_i; then, for i = 1..3m in order,
// the 3m*a_i leaves of N_i.
// ---------------------------------------------------------------------------

Tree threepartition_gadget(const ThreePartitionInstance& inst) {
  const auto m = inst.m();
  if (m <= 0 || static_cast<std::int64_t>(inst.a.size()) != 3 * m) {
    throw std::invalid_argument("threepartition_gadget: |a| must be 3m");
  }
  TreeBuilder b;
  b.add_node(kNoNode, kPebbleOut, kPebbleExec, kPebbleWork);  // root
  for (std::int64_t i = 0; i < 3 * m; ++i) {
    b.add_node(0, kPebbleOut, kPebbleExec, kPebbleWork);  // N_i -> id i+1
  }
  for (std::int64_t i = 0; i < 3 * m; ++i) {
    const std::int64_t leaves = 3 * m * inst.a[i];
    for (std::int64_t l = 0; l < leaves; ++l) {
      b.add_node(static_cast<NodeId>(i + 1), kPebbleOut, kPebbleExec,
                 kPebbleWork);
    }
  }
  return std::move(b).build();
}

ThreePartitionBounds threepartition_bounds(
    const ThreePartitionInstance& inst) {
  const auto m = inst.m();
  ThreePartitionBounds bd{};
  bd.processors = static_cast<int>(3 * m * inst.B);
  bd.makespan_bound = static_cast<double>(2 * m + 1);
  bd.memory_bound = static_cast<MemSize>(3 * m * inst.B + 3 * m);
  return bd;
}

Schedule threepartition_schedule(
    const Tree& tree, const ThreePartitionInstance& inst,
    const std::vector<std::array<int, 3>>& groups) {
  const auto m = inst.m();
  if (static_cast<std::int64_t>(groups.size()) != m) {
    throw std::invalid_argument("threepartition_schedule: need m groups");
  }
  // First leaf id of N_i (ids are laid out contiguously per N_i).
  std::vector<NodeId> leaf_base(static_cast<std::size_t>(3 * m));
  NodeId cursor = static_cast<NodeId>(1 + 3 * m);
  for (std::int64_t i = 0; i < 3 * m; ++i) {
    leaf_base[i] = cursor;
    cursor += static_cast<NodeId>(3 * m * inst.a[i]);
  }
  Schedule s(tree.size());
  for (std::int64_t g = 0; g < m; ++g) {
    const double t_leaves = static_cast<double>(2 * g);      // step 2g+1
    const double t_inner = static_cast<double>(2 * g + 1);   // step 2g+2
    int proc = 0;
    for (int idx : groups[g]) {
      const std::int64_t leaves = 3 * m * inst.a[idx];
      for (std::int64_t l = 0; l < leaves; ++l) {
        const NodeId leaf = leaf_base[idx] + static_cast<NodeId>(l);
        s.start[leaf] = t_leaves;
        s.proc[leaf] = proc++;
      }
    }
    int iproc = 0;
    for (int idx : groups[g]) {
      const NodeId inner = static_cast<NodeId>(idx + 1);
      s.start[inner] = t_inner;
      s.proc[inner] = iproc++;
    }
  }
  s.start[0] = static_cast<double>(2 * m);  // root, step 2m+1
  s.proc[0] = 0;
  return s;
}

// ---------------------------------------------------------------------------
// Figure 2 — inapproximability tree.
// Per-subtree layout (0-based offsets within the subtree block):
//   cp_1..cp_{delta-1}, then for j = 1..delta-1: d_j followed by its
//   (delta-j+1) leaves, then b_delta, b_{delta+1}.
// ---------------------------------------------------------------------------

namespace {

struct InapproxLayout {
  int delta;
  NodeId per_subtree;  ///< nodes per subtree

  explicit InapproxLayout(int d)
      : delta(d),
        per_subtree(static_cast<NodeId>((d * d + 5 * d - 2) / 2)) {}

  [[nodiscard]] NodeId base(int subtree) const {
    return 1 + static_cast<NodeId>(subtree) * per_subtree;
  }
  [[nodiscard]] NodeId cp(int subtree, int j) const {  // j in 1..delta-1
    return base(subtree) + static_cast<NodeId>(j - 1);
  }
  [[nodiscard]] NodeId d_block(int subtree, int j) const {  // d_j id
    // After the delta-1 cp nodes, blocks of (1 + (delta - jj + 1)) for
    // jj = 1..j-1.
    NodeId off = static_cast<NodeId>(delta - 1);
    for (int jj = 1; jj < j; ++jj) {
      off += static_cast<NodeId>(1 + (delta - jj + 1));
    }
    return base(subtree) + off;
  }
  [[nodiscard]] NodeId leaf(int subtree, int j, int l) const {  // l >= 0
    return d_block(subtree, j) + 1 + static_cast<NodeId>(l);
  }
  [[nodiscard]] NodeId b_delta(int subtree) const {
    return base(subtree) + per_subtree - 2;
  }
  [[nodiscard]] NodeId b_delta1(int subtree) const {
    return base(subtree) + per_subtree - 1;
  }
};

}  // namespace

Tree inapprox_tree(int n_subtrees, int delta) {
  if (n_subtrees < 1 || delta < 2) {
    throw std::invalid_argument("inapprox_tree: need n >= 1, delta >= 2");
  }
  const InapproxLayout lay(delta);
  TreeBuilder b;
  b.add_node(kNoNode, kPebbleOut, kPebbleExec, kPebbleWork);  // root = 0
  for (int i = 0; i < n_subtrees; ++i) {
    // cp chain
    for (int j = 1; j <= delta - 1; ++j) {
      const NodeId parent = j == 1 ? 0 : lay.cp(i, j - 1);
      const NodeId id =
          b.add_node(parent, kPebbleOut, kPebbleExec, kPebbleWork);
      if (id != lay.cp(i, j)) throw std::logic_error("inapprox layout cp");
    }
    // d_j + leaves
    for (int j = 1; j <= delta - 1; ++j) {
      const NodeId id =
          b.add_node(lay.cp(i, j), kPebbleOut, kPebbleExec, kPebbleWork);
      if (id != lay.d_block(i, j)) throw std::logic_error("inapprox layout d");
      const int nleaves = delta - j + 1;
      for (int l = 0; l < nleaves; ++l) {
        b.add_node(id, kPebbleOut, kPebbleExec, kPebbleWork);
      }
    }
    // b_delta (child of cp_{delta-1}), b_{delta+1} (child of b_delta)
    const NodeId bd = b.add_node(lay.cp(i, delta - 1), kPebbleOut,
                                 kPebbleExec, kPebbleWork);
    if (bd != lay.b_delta(i)) throw std::logic_error("inapprox layout b");
    b.add_node(bd, kPebbleOut, kPebbleExec, kPebbleWork);
  }
  return std::move(b).build();
}

Schedule inapprox_sequential_schedule(const Tree& tree, int n_subtrees,
                                      int delta) {
  const InapproxLayout lay(delta);
  std::vector<NodeId> order;
  order.reserve(tree.size());
  for (int i = 0; i < n_subtrees; ++i) {
    for (int j = 1; j <= delta - 1; ++j) {
      const int nleaves = delta - j + 1;
      for (int l = 0; l < nleaves; ++l) order.push_back(lay.leaf(i, j, l));
      order.push_back(lay.d_block(i, j));
    }
    order.push_back(lay.b_delta1(i));
    order.push_back(lay.b_delta(i));
    for (int j = delta - 1; j >= 1; --j) order.push_back(lay.cp(i, j));
  }
  order.push_back(0);  // root
  if (static_cast<NodeId>(order.size()) != tree.size()) {
    throw std::logic_error("inapprox_sequential_schedule: bad order size");
  }
  return sequential_schedule(tree, order);
}

// ---------------------------------------------------------------------------
// Figure 3 — fork.
// ---------------------------------------------------------------------------

Tree fork_tree(int num_leaves) {
  TreeBuilder b;
  b.add_node(kNoNode, kPebbleOut, kPebbleExec, kPebbleWork);
  for (int i = 0; i < num_leaves; ++i) {
    b.add_node(0, kPebbleOut, kPebbleExec, kPebbleWork);
  }
  return std::move(b).build();
}

// ---------------------------------------------------------------------------
// Figure 4 — ParInnerFirst adversary.
// Spine s_1..s_{2k} (s_{2k} = root, s_1 = deepest leaf); every odd spine
// position 3, 5, ..., 2k-1 is a join with p-1 extra leaf children.
// ---------------------------------------------------------------------------

Tree innerfirst_adversary_tree(int k, int p) {
  if (k < 2 || p < 2) {
    throw std::invalid_argument("innerfirst_adversary_tree: k >= 2, p >= 2");
  }
  TreeBuilder b;
  // Build the spine top-down: root first.
  std::vector<NodeId> spine(static_cast<std::size_t>(2 * k));
  for (int pos = 2 * k; pos >= 1; --pos) {
    const NodeId parent = pos == 2 * k ? kNoNode : spine[pos];  // s_{pos+1}
    spine[pos - 1] =
        b.add_node(parent, kPebbleOut, kPebbleExec, kPebbleWork);
  }
  for (int pos = 3; pos <= 2 * k - 1; pos += 2) {
    for (int l = 0; l < p - 1; ++l) {
      b.add_node(spine[pos - 1], kPebbleOut, kPebbleExec, kPebbleWork);
    }
  }
  return std::move(b).build();
}

// ---------------------------------------------------------------------------
// Figure 5 — ParDeepestFirst adversary.
// Spine s_1..s_c (s_c = root); s_j carries a chain of length len + (j - 1)
// so that every chain leaf sits at the same depth.
// ---------------------------------------------------------------------------

Tree chains_tree(int chains, int len) {
  if (chains < 1 || len < 1) {
    throw std::invalid_argument("chains_tree: chains >= 1, len >= 1");
  }
  TreeBuilder b;
  std::vector<NodeId> spine(static_cast<std::size_t>(chains));
  for (int j = chains; j >= 1; --j) {
    const NodeId parent = j == chains ? kNoNode : spine[j];
    spine[j - 1] = b.add_node(parent, kPebbleOut, kPebbleExec, kPebbleWork);
  }
  for (int j = 1; j <= chains; ++j) {
    const int chain_len = len + (j - 1);
    NodeId parent = spine[j - 1];
    for (int l = 0; l < chain_len; ++l) {
      parent = b.add_node(parent, kPebbleOut, kPebbleExec, kPebbleWork);
    }
  }
  return std::move(b).build();
}

// ---------------------------------------------------------------------------
// Random trees.
// ---------------------------------------------------------------------------

RandomNode random_tree_node(const RandomTreeParams& params, NodeId i,
                            Rng& rng) {
  RandomNode node;
  if (i > 0) {
    if (params.depth_bias <= 0.0) {
      node.parent =
          static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(i)));
    } else {
      const double u = rng.uniform01();
      const double frac = std::pow(u, 1.0 / (1.0 + params.depth_bias));
      node.parent = static_cast<NodeId>(
          std::min<std::uint64_t>(static_cast<std::uint64_t>(i) - 1,
                                  static_cast<std::uint64_t>(
                                      frac * static_cast<double>(i))));
    }
  }
  node.output_size = params.min_output +
                     rng.uniform(params.max_output - params.min_output + 1);
  node.exec_size =
      params.min_exec + rng.uniform(params.max_exec - params.min_exec + 1);
  node.work = params.min_work == params.max_work
                  ? params.min_work
                  : rng.uniform_real(params.min_work, params.max_work);
  return node;
}

Tree random_tree(const RandomTreeParams& params, Rng& rng) {
  if (params.n < 1) throw std::invalid_argument("random_tree: n >= 1");
  if (params.max_output < params.min_output ||
      params.max_exec < params.min_exec ||
      params.max_work < params.min_work) {
    throw std::invalid_argument("random_tree: empty weight range");
  }
  TreeBuilder b;
  for (NodeId i = 0; i < params.n; ++i) {
    const RandomNode node = random_tree_node(params, i, rng);
    b.add_node(node.parent, node.output_size, node.exec_size, node.work);
  }
  return std::move(b).build();
}

Tree random_pebble_tree(NodeId n, Rng& rng, double depth_bias) {
  RandomTreeParams params;
  params.n = n;
  params.depth_bias = depth_bias;
  return random_tree(params, rng);
}

std::vector<Tree> all_tree_shapes(NodeId n) {
  if (n < 1 || n > 10) {
    throw std::invalid_argument("all_tree_shapes: 1 <= n <= 10");
  }
  std::vector<Tree> trees;
  // parent[i] in [0, i); enumerate mixed-radix counter.
  std::vector<NodeId> choice(static_cast<std::size_t>(n), 0);
  for (;;) {
    TreeBuilder b;
    b.add_node(kNoNode, kPebbleOut, kPebbleExec, kPebbleWork);
    for (NodeId i = 1; i < n; ++i) {
      b.add_node(choice[i], kPebbleOut, kPebbleExec, kPebbleWork);
    }
    trees.push_back(std::move(b).build());
    // increment counter
    NodeId pos = n - 1;
    while (pos >= 1) {
      if (choice[pos] + 1 < pos) {
        ++choice[pos];
        break;
      }
      choice[pos] = 0;
      --pos;
    }
    if (pos == 0) break;
  }
  return trees;
}

}  // namespace treesched
