#include "spmatrix/symbolic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "spmatrix/amalgamation.hpp"
#include "spmatrix_reference.hpp"

namespace treesched {
namespace {

// symbolic_cholesky against the explicit-pattern oracle: equal column
// counts, nnz(L) and etree, and equal assembly trees at the paper's caps.
void expect_matches_explicit_reference(const SparsePattern& a,
                                       const Ordering& perm) {
  const SymbolicResult got = symbolic_cholesky(a, perm);
  const SymbolicResult want =
      reference::column_counts_explicit_reference(a, perm);
  ASSERT_EQ(got.col_counts, want.col_counts);
  ASSERT_EQ(got.factor_nnz, want.factor_nnz);
  ASSERT_EQ(got.etree_parent, want.etree_parent);
  for (std::int64_t z : {1, 2, 4, 16}) {
    SCOPED_TRACE("z=" + std::to_string(z));
    const AssemblyTree g = amalgamate(got, z);
    const AssemblyTree w = amalgamate(want, z);
    ASSERT_EQ(g.node_of_column, w.node_of_column);
    ASSERT_EQ(g.nodes.size(), w.nodes.size());
    for (std::size_t k = 0; k < g.nodes.size(); ++k) {
      ASSERT_EQ(g.nodes[k].parent, w.nodes[k].parent) << "node " << k;
      ASSERT_EQ(g.nodes[k].eta, w.nodes[k].eta) << "node " << k;
      ASSERT_EQ(g.nodes[k].mu, w.nodes[k].mu) << "node " << k;
    }
  }
}

TEST(Symbolic, PathGraphHasNoFill) {
  SparsePattern a(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto sym = symbolic_cholesky(a, natural_ordering(5));
  EXPECT_EQ(sym.col_counts, (std::vector<std::int64_t>{2, 2, 2, 2, 1}));
  EXPECT_EQ(sym.factor_nnz, 9);
}

TEST(Symbolic, DenseCliqueCounts) {
  // Complete graph K4: L is full lower triangle.
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) edges.emplace_back(i, j);
  }
  SparsePattern a(4, std::move(edges));
  auto sym = symbolic_cholesky(a, natural_ordering(4));
  EXPECT_EQ(sym.col_counts, (std::vector<std::int64_t>{4, 3, 2, 1}));
}

TEST(Symbolic, StarCenterFirstFillsCompletely) {
  // Center eliminated first -> remaining vertices form a clique.
  SparsePattern a(4, {{0, 1}, {0, 2}, {0, 3}});
  auto sym = symbolic_cholesky(a, natural_ordering(4));
  EXPECT_EQ(sym.col_counts, (std::vector<std::int64_t>{4, 3, 2, 1}));
  // Leaf-first ordering has no fill.
  auto sym2 = symbolic_cholesky(a, Ordering{1, 2, 3, 0});
  EXPECT_EQ(sym2.col_counts, (std::vector<std::int64_t>{2, 2, 2, 1}));
}

TEST(Symbolic, MatchesDenseReferenceOnRandomInstances) {
  Rng rng(31);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + (int)rng.uniform(35);
    SparsePattern a = random_pattern(n, 3.5, rng);
    for (int o = 0; o < 2; ++o) {
      Ordering perm =
          o == 0 ? natural_ordering(n) : random_ordering(n, rng);
      auto sym = symbolic_cholesky(a, perm);
      EXPECT_EQ(sym.col_counts,
                reference::column_counts_dense_reference(a, perm));
    }
  }
}

TEST(Symbolic, MatchesDenseReferenceOnGridWithNd) {
  SparsePattern a = grid2d_pattern(7, 7);
  auto perm = nested_dissection_2d(7, 7, 2);
  auto sym = symbolic_cholesky(a, perm);
  EXPECT_EQ(sym.col_counts, reference::column_counts_dense_reference(a, perm));
}

TEST(Symbolic, CountsAreAtLeastOne) {
  Rng rng(37);
  SparsePattern a = random_pattern(120, 4.0, rng);
  auto sym = symbolic_cholesky(a, random_ordering(120, rng));
  for (auto c : sym.col_counts) EXPECT_GE(c, 1);
  EXPECT_EQ(sym.col_counts.back(), 1);  // last column: diagonal only
}

TEST(Symbolic, EtreeParentConsistentWithCounts) {
  // For a connected matrix, mu_j >= 2 for every non-root column.
  Rng rng(41);
  SparsePattern a = random_pattern(60, 3.0, rng);
  auto sym = symbolic_cholesky(a, natural_ordering(60));
  for (int j = 0; j < 60; ++j) {
    if (sym.etree_parent[j] != -1) EXPECT_GE(sym.col_counts[j], 2);
  }
}

TEST(Symbolic, MatchesExplicitReferenceOn2dGridsWithNd) {
  for (int nx = 1; nx <= 120; ++nx) {
    SCOPED_TRACE("nx=" + std::to_string(nx));
    expect_matches_explicit_reference(grid2d_pattern(nx, nx),
                                      nested_dissection_2d(nx, nx));
  }
}

TEST(Symbolic, MatchesExplicitReferenceOn3dGridsWithNd) {
  for (int nx = 2; nx <= 16; ++nx) {
    SCOPED_TRACE("nx=" + std::to_string(nx));
    expect_matches_explicit_reference(grid3d_pattern(nx, nx, nx),
                                      nested_dissection_3d(nx, nx, nx));
  }
}

TEST(Symbolic, MatchesExplicitReferenceOnRandomPatterns) {
  Rng rng(43);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform(250));
    const double degree = 2.0 + trial % 7;
    const SparsePattern a = random_pattern(n, degree, rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ", n=" +
                 std::to_string(n));
    expect_matches_explicit_reference(a, minimum_degree_ordering(a));
    expect_matches_explicit_reference(a, random_ordering(n, rng));
  }
}

TEST(Symbolic, MatchesExplicitReferenceOnDisconnectedPattern) {
  // A 6x6 grid, a 4-cycle, a path and two isolated vertices: the etree is
  // a forest with one root per component.
  std::vector<std::pair<int, int>> edges;
  for (int y = 0; y < 6; ++y) {
    for (int x = 0; x < 6; ++x) {
      if (x + 1 < 6) edges.emplace_back(x + 6 * y, x + 1 + 6 * y);
      if (y + 1 < 6) edges.emplace_back(x + 6 * y, x + 6 * (y + 1));
    }
  }
  for (int k = 0; k < 4; ++k) edges.emplace_back(36 + k, 36 + (k + 1) % 4);
  for (int v = 40; v < 45; ++v) edges.emplace_back(v, v + 1);
  const SparsePattern a(48, std::move(edges));
  Rng rng(47);
  for (const Ordering& perm :
       {natural_ordering(48), minimum_degree_ordering(a),
        random_ordering(48, rng)}) {
    const SymbolicResult sym = symbolic_cholesky(a, perm);
    EXPECT_EQ(std::count(sym.etree_parent.begin(), sym.etree_parent.end(), -1),
              5);
    expect_matches_explicit_reference(a, perm);
  }
}

TEST(Symbolic, MatchesExplicitReferenceOnOneVertex) {
  const SparsePattern a(1, {});
  const SymbolicResult sym = symbolic_cholesky(a, natural_ordering(1));
  EXPECT_EQ(sym.col_counts, (std::vector<std::int64_t>{1}));
  EXPECT_EQ(sym.factor_nnz, 1);
  EXPECT_EQ(sym.etree_parent, (std::vector<int>{-1}));
  expect_matches_explicit_reference(a, natural_ordering(1));
}

}  // namespace
}  // namespace treesched
