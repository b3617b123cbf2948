#include "spmatrix/etree.hpp"

#include <gtest/gtest.h>

#include "spmatrix/ordering.hpp"
#include "spmatrix_reference.hpp"

namespace treesched {
namespace {

TEST(Etree, PathGraphNaturalOrderIsAChain) {
  SparsePattern a(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto parent = elimination_tree(a, natural_ordering(5));
  EXPECT_EQ(parent, (std::vector<int>{1, 2, 3, 4, -1}));
}

TEST(Etree, StarGraphLeafFirst) {
  // Star centered at 4, leaves 0-3 eliminated first: all parents = center.
  SparsePattern a(5, {{4, 0}, {4, 1}, {4, 2}, {4, 3}});
  auto parent = elimination_tree(a, natural_ordering(5));
  EXPECT_EQ(parent, (std::vector<int>{4, 4, 4, 4, -1}));
}

TEST(Etree, StarGraphCenterFirstCreatesChain) {
  // Eliminating the center first connects all leaves into a clique ->
  // chain in the etree.
  SparsePattern a(4, {{0, 1}, {0, 2}, {0, 3}});
  auto parent = elimination_tree(a, natural_ordering(4));
  EXPECT_EQ(parent, (std::vector<int>{1, 2, 3, -1}));
}

TEST(Etree, MatchesDenseReferenceOnRandomInstances) {
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 2 + (int)rng.uniform(40);
    SparsePattern a = random_pattern(n, 3.0, rng);
    for (int o = 0; o < 2; ++o) {
      Ordering perm =
          o == 0 ? natural_ordering(n) : random_ordering(n, rng);
      EXPECT_EQ(elimination_tree(a, perm),
                reference::elimination_tree_dense_reference(a, perm));
    }
  }
}

TEST(Etree, MatchesDenseReferenceOnGrids) {
  SparsePattern a = grid2d_pattern(6, 5);
  for (const Ordering& perm :
       {natural_ordering(30), nested_dissection_2d(6, 5, 2)}) {
    EXPECT_EQ(elimination_tree(a, perm),
              reference::elimination_tree_dense_reference(a, perm));
  }
}

TEST(Etree, ConnectedPatternGivesSingleRoot) {
  Rng rng(13);
  SparsePattern a = random_pattern(60, 4.0, rng);
  auto parent = elimination_tree(a, random_ordering(60, rng));
  int roots = 0;
  for (int p : parent) roots += p == -1 ? 1 : 0;
  EXPECT_EQ(roots, 1);
  EXPECT_EQ(parent[59], -1);  // last column is always a root
}

TEST(Etree, ParentAlwaysLarger) {
  Rng rng(17);
  SparsePattern a = random_pattern(80, 5.0, rng);
  auto parent = elimination_tree(a, random_ordering(80, rng));
  for (int j = 0; j < 80; ++j) {
    if (parent[j] != -1) EXPECT_GT(parent[j], j);
  }
}

TEST(Etree, RejectsBadPermutation) {
  SparsePattern a(3, {{0, 1}, {1, 2}});
  EXPECT_THROW(elimination_tree(a, Ordering{0, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace treesched
