#include "spmatrix/sparse.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <vector>

namespace treesched {
namespace {

TEST(SparsePattern, NormalizesEdges) {
  // duplicates, both orientations and self loops collapse.
  SparsePattern a(3, {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}});
  EXPECT_EQ(a.size(), 3);
  EXPECT_EQ(a.num_edges(), 2);
  EXPECT_EQ(a.degree(1), 2);
  EXPECT_EQ(a.degree(2), 1);
}

TEST(SparsePattern, NeighborsAreSorted) {
  SparsePattern a(4, {{2, 0}, {2, 3}, {2, 1}});
  auto nb = a.neighbors(2);
  std::vector<int> v(nb.begin(), nb.end());
  EXPECT_EQ(v, (std::vector<int>{0, 1, 3}));
}

TEST(SparsePattern, RejectsOutOfRange) {
  EXPECT_THROW(SparsePattern(2, {{0, 5}}), std::invalid_argument);
}

TEST(Grid2d, StructureAndDegrees) {
  SparsePattern a = grid2d_pattern(3, 3);
  EXPECT_EQ(a.size(), 9);
  EXPECT_EQ(a.num_edges(), 12);  // 2 * 3 * 2 grids of edges
  EXPECT_EQ(a.degree(4), 4);     // center
  EXPECT_EQ(a.degree(0), 2);     // corner
}

TEST(Grid3d, StructureAndDegrees) {
  SparsePattern a = grid3d_pattern(3, 3, 3);
  EXPECT_EQ(a.size(), 27);
  EXPECT_EQ(a.degree(13), 6);  // center of the cube
  EXPECT_EQ(a.degree(0), 3);   // corner
}

TEST(Grid2d, DegenerateLine) {
  SparsePattern a = grid2d_pattern(5, 1);
  EXPECT_EQ(a.size(), 5);
  EXPECT_EQ(a.num_edges(), 4);
}

void expect_same_rows(const SparsePattern& got, const SparsePattern& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.num_edges(), want.num_edges());
  for (int v = 0; v < want.size(); ++v) {
    const auto g = got.neighbors(v);
    const auto w = want.neighbors(v);
    EXPECT_EQ(std::vector<int>(g.begin(), g.end()),
              std::vector<int>(w.begin(), w.end()))
        << "vertex " << v;
  }
}

TEST(Grid3d, RowsEqualTheSortedEdgeListPattern) {
  // Grids are emitted straight as CSR; each row must hold exactly the
  // neighbors the edge-list constructor produces, in ascending order.
  for (const auto& [nx, ny, nz] :
       std::vector<std::array<int, 3>>{{1, 1, 1}, {5, 1, 1}, {1, 5, 1},
                                       {1, 1, 5}, {4, 3, 1}, {3, 4, 2},
                                       {2, 5, 3}, {4, 4, 4}}) {
    SCOPED_TRACE(std::to_string(nx) + "x" + std::to_string(ny) + "x" +
                 std::to_string(nz));
    std::vector<std::pair<int, int>> edges;
    auto id = [&](int x, int y, int z) { return x + nx * (y + ny * z); };
    for (int z = 0; z < nz; ++z) {
      for (int y = 0; y < ny; ++y) {
        for (int x = 0; x < nx; ++x) {
          if (x + 1 < nx) edges.emplace_back(id(x, y, z), id(x + 1, y, z));
          if (y + 1 < ny) edges.emplace_back(id(x, y, z), id(x, y + 1, z));
          if (z + 1 < nz) edges.emplace_back(id(x, y, z), id(x, y, z + 1));
        }
      }
    }
    const SparsePattern want(nx * ny * nz, std::move(edges));
    expect_same_rows(grid3d_pattern(nx, ny, nz), want);
    if (nz == 1) expect_same_rows(grid2d_pattern(nx, ny), want);
  }
}

TEST(RandomPattern, ConnectedAndSized) {
  Rng rng(5);
  SparsePattern a = random_pattern(200, 4.0, rng);
  EXPECT_EQ(a.size(), 200);
  EXPECT_GE(a.num_edges(), 199);  // spanning tree at minimum
  // connectivity: BFS reaches everything.
  std::vector<char> seen(200, 0);
  std::vector<int> stack{0};
  seen[0] = 1;
  int count = 0;
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    ++count;
    for (int u : a.neighbors(v)) {
      if (!seen[u]) {
        seen[u] = 1;
        stack.push_back(u);
      }
    }
  }
  EXPECT_EQ(count, 200);
}

TEST(RandomPattern, AverageDegreeApproximatelyRespected) {
  Rng rng(7);
  SparsePattern a = random_pattern(2000, 6.0, rng);
  const double avg = 2.0 * (double)a.num_edges() / a.size();
  EXPECT_GT(avg, 4.0);
  EXPECT_LT(avg, 7.0);
}

}  // namespace
}  // namespace treesched
