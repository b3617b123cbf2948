#pragma once
// Symbolic Cholesky factorization: column counts of the factor L
// (the paper's Matlab `symbfact` analogue).
//
// struct(L_{*j}) = {j} ∪ {i > j : A_{ij} != 0}
//                ∪ ( ∪_{c child of j in etree} struct(L_{*c}) \ {c} )
// computed bottom-up with a marker array; the explicit per-column pattern
// of a child is freed as soon as its parent consumed it, so the working
// set stays proportional to the frontier.

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
