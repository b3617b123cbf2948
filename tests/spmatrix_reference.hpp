#pragma once
// Dense-elimination oracles for the sparse-matrix front end: symbolic
// Gaussian elimination on an explicit boolean matrix, O(n^2) space and
// O(n^3) time. tests/test_etree.cpp and tests/test_symbolic.cpp check
// elimination_tree() and symbolic_cholesky() against them.

#include <cstdint>
#include <vector>

#include "spmatrix/ordering.hpp"
#include "spmatrix/sparse.hpp"

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

}  // namespace treesched::reference
