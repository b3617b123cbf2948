#pragma once
// Tree instance generators: every tree family appearing in the paper's
// proofs and discussion (Figures 1-5), plus random trees for property tests
// and campaigns.

#include <array>
#include <cstdint>
#include <vector>

#include "core/schedule.hpp"
#include "core/tree.hpp"
#include "util/random.hpp"

namespace treesched {

// ---------------------------------------------------------------------------
// Figure 1 — NP-completeness gadget (Theorem 1).
// Instance of 3-Partition: 3m integers a_i summing to m*B, B/4 < a_i < B/2.
// Tree: root with 3m children N_i; N_i has 3m*a_i leaf children.
// Pebble-game weights (f=1, n=0, w=1).
// ---------------------------------------------------------------------------
struct ThreePartitionInstance {
  std::vector<std::int64_t> a;  ///< 3m values
  std::int64_t B = 0;           ///< target subset sum

  [[nodiscard]] std::int64_t m() const {
    return static_cast<std::int64_t>(a.size()) / 3;
  }
};

/// Builds the reduction tree of Figure 1. Node 0 is the root, nodes
/// 1..3m are the N_i (in the order of `inst.a`), leaves follow.
Tree threepartition_gadget(const ThreePartitionInstance& inst);

/// The proof's constructive schedule for a YES instance, given the solution
/// as m groups of 3 indices into `inst.a` (each group summing to B).
/// Uses p = 3mB processors; meets makespan 2m+1 and peak 3mB + 3m.
Schedule threepartition_schedule(
    const Tree& tree, const ThreePartitionInstance& inst,
    const std::vector<std::array<int, 3>>& groups);

/// Reduction parameters from Theorem 1, for assertions in tests/benches.
struct ThreePartitionBounds {
  int processors;
  double makespan_bound;   ///< B_Cmax = 2m + 1
  MemSize memory_bound;    ///< B_mem = 3mB + 3m
};
ThreePartitionBounds threepartition_bounds(const ThreePartitionInstance& inst);

// ---------------------------------------------------------------------------
// Figure 2 — inapproximability tree (Theorem 2).
// n identical subtrees under the root; each subtree: a chain of cp nodes
// cp_1..cp_{delta-1} with, hanging off each cp_j, a node d_j that has
// delta-j+1 leaf children; the chain ends with b_delta, b_{delta+1}.
// Pebble-game weights. Optimal makespan = delta + 2 (given enough
// processors); optimal sequential memory = n + delta.
// ---------------------------------------------------------------------------
Tree inapprox_tree(int n_subtrees, int delta);

/// The proof's memory-optimal sequential schedule (peak n + delta).
Schedule inapprox_sequential_schedule(const Tree& tree, int n_subtrees,
                                      int delta);

// ---------------------------------------------------------------------------
// Figure 3 — fork: root with p*k unit leaves. ParSubtrees' makespan
// worst case (ratio -> p as k grows).
// ---------------------------------------------------------------------------
Tree fork_tree(int num_leaves);

// ---------------------------------------------------------------------------
// Figure 4 — ParInnerFirst memory adversary: a spine of k join nodes; each
// spine node has p-1 extra leaf children; the spine bottom is a leaf.
// Optimal sequential memory is p + 1; ParInnerFirst with p processors
// needs ~ (k-1)(p-1) + ... (unbounded in k).
// ---------------------------------------------------------------------------
Tree innerfirst_adversary_tree(int k, int p);

// ---------------------------------------------------------------------------
// Figure 5 — ParDeepestFirst memory adversary: `chains` chains of length
// `len` joined by a binary-ish reduction to the root; all leaves at equal
// (deepest) depth. Optimal sequential memory is 3 in the pebble game;
// ParDeepestFirst's grows with the number of chains.
// ---------------------------------------------------------------------------
Tree chains_tree(int chains, int len);

// ---------------------------------------------------------------------------
// Random trees.
// ---------------------------------------------------------------------------
struct RandomTreeParams {
  NodeId n = 100;
  /// "Attachment bias": 0 = uniform random parent (shallow, bushy);
  /// larger values bias attachment towards recent nodes (deeper trees).
  double depth_bias = 0.0;
  // Weight ranges (inclusive). Defaults give the pebble-game model.
  MemSize min_output = 1, max_output = 1;
  MemSize min_exec = 0, max_exec = 0;
  double min_work = 1.0, max_work = 1.0;
};

/// Uniform-attachment random tree with the given weight distributions.
/// Node 0 is the root and every other node's parent has a smaller id
/// (parent[i] < i), so one descending pass over the ids visits every
/// child before its parent.
Tree random_tree(const RandomTreeParams& params, Rng& rng);

/// Node i of random_tree(params, rng): its parent (kNoNode for i == 0,
/// else < i) and weights, drawn from `rng` exactly as random_tree draws
/// them. Calling it for i = 0, 1, ..., n-1 replays random_tree's draws.
struct RandomNode {
  NodeId parent = kNoNode;
  MemSize output_size = 0;
  MemSize exec_size = 0;
  double work = 0.0;
};
RandomNode random_tree_node(const RandomTreeParams& params, NodeId i,
                            Rng& rng);

/// Pebble-game random tree (f=1, n=0, w=1) with n nodes.
Tree random_pebble_tree(NodeId n, Rng& rng, double depth_bias = 0.0);

/// Exhaustive enumeration of all rooted-tree shapes on n nodes (as parent
/// arrays with parent[i] < i). Pebble-game weights. For n <= 9 in tests.
std::vector<Tree> all_tree_shapes(NodeId n);

}  // namespace treesched
