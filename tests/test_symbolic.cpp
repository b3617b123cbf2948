#include "spmatrix/symbolic.hpp"

#include <gtest/gtest.h>

#include "spmatrix_reference.hpp"

namespace treesched {
namespace {

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

}  // namespace
}  // namespace treesched
