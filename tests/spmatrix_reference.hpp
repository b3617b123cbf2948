#pragma once
// Oracles for the sparse-matrix front end.
//  * Dense elimination: symbolic Gaussian elimination on an explicit
//    boolean matrix, O(n^2) space and O(n^3) time. tests/test_etree.cpp
//    and tests/test_symbolic.cpp check elimination_tree() and
//    symbolic_cholesky() against them on small matrices.
//  * Explicit column patterns: the symbolic_cholesky() that built every
//    column of L before the library switched to Gilbert-Ng-Peyton column
//    counts. Near-linear in |L|, so tests/test_symbolic.cpp checks the
//    library against it up to grid sizes the dense oracles cannot reach.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "spmatrix/etree.hpp"
#include "spmatrix/ordering.hpp"
#include "spmatrix/sparse.hpp"
#include "spmatrix/symbolic.hpp"

namespace treesched::reference {

/// Dense-Gaussian-elimination reference: simulates symbolic elimination on
/// an explicit boolean matrix and derives parents as the first fill row
/// below the diagonal.
inline std::vector<int> elimination_tree_dense_reference(
    const SparsePattern& a, const Ordering& perm) {
  const int n = a.size();
  const Ordering inv = inverse_ordering(perm);
  // full[j] = set of rows i > j with L_{ij} != 0 (structurally), as a
  // simple boolean matrix.
  std::vector<std::vector<char>> lower(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(n), 0));
  for (int j = 0; j < n; ++j) {
    for (int u : a.neighbors(perm[j])) {
      const int i = inv[u];
      if (i > j) lower[j][i] = 1;
    }
  }
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  for (int j = 0; j < n; ++j) {
    // First subdiagonal nonzero is the parent; spread fill to it.
    int par = -1;
    for (int i = j + 1; i < n; ++i) {
      if (lower[j][i]) {
        par = i;
        break;
      }
    }
    parent[j] = par;
    if (par == -1) continue;
    for (int i = par + 1; i < n; ++i) {
      if (lower[j][i]) lower[par][i] = 1;
    }
  }
  return parent;
}

/// Column counts of L (diagonal included) via the same dense boolean
/// elimination.
inline std::vector<std::int64_t> column_counts_dense_reference(
    const SparsePattern& a, const Ordering& perm) {
  const int n = a.size();
  const Ordering inv = inverse_ordering(perm);
  std::vector<std::vector<char>> lower(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(n), 0));
  for (int j = 0; j < n; ++j) {
    for (int u : a.neighbors(perm[j])) {
      const int i = inv[u];
      if (i > j) lower[j][i] = 1;
    }
  }
  std::vector<std::int64_t> counts(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n; ++j) {
    int par = -1;
    std::int64_t cnt = 1;  // diagonal
    for (int i = j + 1; i < n; ++i) {
      if (lower[j][i]) {
        ++cnt;
        if (par == -1) par = i;
      }
    }
    counts[j] = cnt;
    if (par == -1) continue;
    for (int i = par + 1; i < n; ++i) {
      if (lower[j][i]) lower[par][i] = 1;
    }
  }
  return counts;
}

/// symbolic_cholesky() by explicit column patterns: struct(L_{*j}) =
/// {j} ∪ {i > j : A_{ij} != 0} ∪ (∪_{c child of j} struct(L_{*c}) \ {c}),
/// merged bottom-up with a marker array.
inline SymbolicResult column_counts_explicit_reference(const SparsePattern& a,
                                                       const Ordering& perm) {
  const int n = a.size();
  SymbolicResult res;
  res.etree_parent = elimination_tree(a, perm);
  res.col_counts.assign(static_cast<std::size_t>(n), 0);
  const Ordering inv = inverse_ordering(perm);

  // Children lists of the etree.
  std::vector<std::vector<int>> children(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    if (res.etree_parent[j] != -1) children[res.etree_parent[j]].push_back(j);
  }
  // Explicit column patterns, freed once merged into the parent. Columns
  // are processed in increasing index order, which is a valid etree
  // postorder refinement (parent index > child index).
  std::vector<std::vector<int>> pattern(static_cast<std::size_t>(n));
  std::vector<int> mark(static_cast<std::size_t>(n), -1);
  for (int j = 0; j < n; ++j) {
    std::vector<int>& pat = pattern[j];
    mark[j] = j;
    pat.push_back(j);
    for (int u : a.neighbors(perm[j])) {
      const int i = inv[u];
      if (i > j && mark[i] != j) {
        mark[i] = j;
        pat.push_back(i);
      }
    }
    for (int c : children[j]) {
      for (int i : pattern[c]) {
        if (i > j && mark[i] != j) {
          mark[i] = j;
          pat.push_back(i);
        }
      }
      pattern[c].clear();
      pattern[c].shrink_to_fit();
    }
    std::sort(pat.begin(), pat.end());
    res.col_counts[j] = static_cast<std::int64_t>(pat.size());
    res.factor_nnz += res.col_counts[j];
  }
  return res;
}

}  // namespace treesched::reference
