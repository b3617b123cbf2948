#pragma once
// Elimination tree of a permuted symmetric matrix (Liu's parent-pointer
// algorithm with path compression, O(nnz * alpha)).
//
// Column k of the permuted matrix corresponds to original vertex perm[k].
// parent[k] is the etree parent column of column k (-1 for roots). For a
// connected pattern the etree is a single tree rooted at column n-1.

#include <vector>

#include "spmatrix/ordering.hpp"
#include "spmatrix/sparse.hpp"

namespace treesched {

/// Elimination-tree parents in the permuted index space.
std::vector<int> elimination_tree(const SparsePattern& a,
                                  const Ordering& perm);

/// As above, for callers that already hold inv = inverse_ordering(perm).
std::vector<int> elimination_tree(const SparsePattern& a,
                                  const Ordering& perm, const Ordering& inv);

}  // namespace treesched
