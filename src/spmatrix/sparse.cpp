#include "spmatrix/sparse.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace treesched {

SparsePattern::SparsePattern(int n, std::vector<std::pair<int, int>> edges)
    : n_(n) {
  if (n < 0) throw std::invalid_argument("SparsePattern: n < 0");
  // Normalize: both directions, dedupe, drop self loops.
  std::vector<std::pair<int, int>> dir;
  dir.reserve(edges.size() * 2);
  for (auto [i, j] : edges) {
    if (i == j) continue;
    if (i < 0 || i >= n || j < 0 || j >= n) {
      throw std::invalid_argument("SparsePattern: vertex out of range");
    }
    dir.emplace_back(i, j);
    dir.emplace_back(j, i);
  }
  std::sort(dir.begin(), dir.end());
  dir.erase(std::unique(dir.begin(), dir.end()), dir.end());
  begin_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (auto& [i, j] : dir) ++begin_[i + 1];
  for (int i = 0; i < n; ++i) begin_[i + 1] += begin_[i];
  adj_.resize(dir.size());
  std::vector<std::int64_t> cursor(begin_.begin(), begin_.end() - 1);
  for (auto& [i, j] : dir) adj_[cursor[i]++] = j;
}

SparsePattern grid2d_pattern(int nx, int ny) {
  return grid3d_pattern(nx, ny, 1);
}

SparsePattern grid3d_pattern(int nx, int ny, int nz) {
  if (nx < 1 || ny < 1 || nz < 1) {
    throw std::invalid_argument("grid3d: bad dims");
  }
  const std::int64_t plane = static_cast<std::int64_t>(nx) * ny;
  const std::int64_t n = plane * nz;
  if (n > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("grid3d: more vertices than an int holds");
  }
  // Each row's neighbors in ascending order: v - nx*ny, v - nx, v - 1,
  // v + 1, v + nx, v + nx*ny (the ones inside the grid).
  SparsePattern a;
  a.n_ = static_cast<int>(n);
  a.begin_.resize(static_cast<std::size_t>(n) + 1);
  const std::int64_t edges = (nx - 1) * std::int64_t{ny} * nz +
                             std::int64_t{nx} * (ny - 1) * nz +
                             plane * (nz - 1);
  a.adj_.resize(static_cast<std::size_t>(2 * edges));
  const int step_y = nx;
  const int step_z = static_cast<int>(plane);
  std::int64_t k = 0;
  int v = 0;
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x, ++v) {
        a.begin_[v] = k;
        if (z > 0) a.adj_[k++] = v - step_z;
        if (y > 0) a.adj_[k++] = v - step_y;
        if (x > 0) a.adj_[k++] = v - 1;
        if (x + 1 < nx) a.adj_[k++] = v + 1;
        if (y + 1 < ny) a.adj_[k++] = v + step_y;
        if (z + 1 < nz) a.adj_[k++] = v + step_z;
      }
    }
  }
  a.begin_[v] = k;
  return a;
}

SparsePattern random_pattern(int n, double avg_degree, Rng& rng) {
  if (n < 1) throw std::invalid_argument("random_pattern: n < 1");
  std::vector<std::pair<int, int>> edges;
  // Random spanning tree for connectivity.
  for (int v = 1; v < n; ++v) {
    edges.emplace_back(v, static_cast<int>(rng.uniform(v)));
  }
  const auto extra = static_cast<std::int64_t>(
      std::max(0.0, avg_degree / 2.0 - 1.0) * n);
  for (std::int64_t e = 0; e < extra; ++e) {
    int i = static_cast<int>(rng.uniform(n));
    int j = static_cast<int>(rng.uniform(n));
    if (i != j) edges.emplace_back(i, j);
  }
  return SparsePattern(n, std::move(edges));
}

}  // namespace treesched
