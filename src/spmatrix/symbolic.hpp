#pragma once
// Symbolic Cholesky factorization: column counts of the factor L
// (the paper's Matlab `symbfact` analogue), without building L.
//
// Gilbert, Ng and Peyton, "An efficient algorithm to compute row and
// column counts for sparse Cholesky factorization", SIAM J. Matrix Anal.
// Appl. 15(4), 1994 (`cs_counts` in Davis, "Direct Methods for Sparse
// Linear Systems", SIAM, 2006). The nonzeros of row i of L form a
// subtree of the elimination tree, and column j's count is the number of
// these row subtrees that contain j. One etree-postorder pass finds the
// leaves of every row subtree and the least common ancestors of
// consecutive leaves, and turns them into per-column deltas whose subtree
// sums are the counts. O(|A| α(n)) time with a path-compressed ancestor
// forest, O(n) space.

#include <cstdint>
#include <vector>

#include "spmatrix/ordering.hpp"
#include "spmatrix/sparse.hpp"

namespace treesched {

struct SymbolicResult {
  /// mu[j] = |struct(L_{*j})| including the diagonal (the paper's µ).
  std::vector<std::int64_t> col_counts;
  /// nnz(L) = sum of column counts.
  std::int64_t factor_nnz = 0;
  /// Elimination-tree parents (same as elimination_tree()).
  std::vector<int> etree_parent;
};

SymbolicResult symbolic_cholesky(const SparsePattern& a, const Ordering& perm);

}  // namespace treesched
