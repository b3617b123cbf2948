#pragma once
// Symmetric sparse-matrix *patterns* (structure only — the scheduling
// problem never needs numerical values). Stored as full (both-direction)
// CSR adjacency without the diagonal, each row's neighbors in ascending
// order. Grid patterns are emitted row by row straight into that form;
// only edge lists (random patterns) go through a sort and a dedupe.
//
// This module replaces the University of Florida collection in the paper's
// pipeline: grid Laplacians are the classic model problem for multifrontal
// solvers (what MeTiS-ordered matrices look like), random symmetric
// patterns model irregular problems (what amd-ordered matrices look like).

#include <cstdint>
#include <span>
#include <vector>

#include "util/random.hpp"

namespace treesched {

class SparsePattern {
 public:
  SparsePattern() = default;

  /// From an edge list (i, j), i != j; duplicates and both orientations are
  /// tolerated and normalized.
  SparsePattern(int n, std::vector<std::pair<int, int>> edges);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] std::int64_t num_edges() const {
    return static_cast<std::int64_t>(adj_.size()) / 2;
  }
  [[nodiscard]] std::span<const int> neighbors(int v) const {
    return {adj_.data() + begin_[v], adj_.data() + begin_[v + 1]};
  }
  [[nodiscard]] int degree(int v) const {
    return static_cast<int>(begin_[v + 1] - begin_[v]);
  }

 private:
  friend SparsePattern grid3d_pattern(int nx, int ny, int nz);

  int n_ = 0;
  std::vector<std::int64_t> begin_;
  std::vector<int> adj_;
};

/// 5-point 2D grid Laplacian pattern on nx * ny vertices
/// (vertex (x, y) has index x + nx * y): grid3d_pattern(nx, ny, 1).
SparsePattern grid2d_pattern(int nx, int ny);

/// 7-point 3D grid Laplacian pattern on nx * ny * nz vertices
/// (vertex (x, y, z) has index x + nx * (y + ny * z)), built as sorted
/// CSR in O(nx * ny * nz).
SparsePattern grid3d_pattern(int nx, int ny, int nz);

/// Connected random symmetric pattern with ~avg_degree neighbors per
/// vertex: a random spanning tree plus uniform random edges.
SparsePattern random_pattern(int n, double avg_degree, Rng& rng);

}  // namespace treesched
