#include "spmatrix/symbolic.hpp"

#include <numeric>
#include <stdexcept>

#include "spmatrix/etree.hpp"

namespace treesched {

SymbolicResult symbolic_cholesky(const SparsePattern& a,
                                 const Ordering& perm) {
  const int n = a.size();
  if (static_cast<int>(perm.size()) != n) {
    throw std::invalid_argument("symbolic_cholesky: bad permutation");
  }
  const auto un = static_cast<std::size_t>(n);
  const Ordering inv = inverse_ordering(perm);
  SymbolicResult res;
  res.etree_parent = elimination_tree(a, perm, inv);
  const std::vector<int>& parent = res.etree_parent;

  // Etree postorder without child lists. parent[j] > j, so an ascending
  // pass sums subtree sizes and a descending pass lays every subtree out
  // as the interval [first[j], first[j] + size[j]) of the postorder, with
  // j last. first[j] is then the postorder index of j's first descendant.
  std::vector<int> size(un, 1);
  for (int j = 0; j < n; ++j) {
    if (parent[j] != -1) size[parent[j]] += size[j];
  }
  std::vector<int> first(un);
  std::vector<int> cursor(un);
  std::vector<int> post(un);
  int next_root = 0;
  for (int j = n - 1; j >= 0; --j) {
    int& slot = parent[j] == -1 ? next_root : cursor[parent[j]];
    first[j] = slot;
    slot += size[j];
    cursor[j] = first[j];
    post[first[j] + size[j] - 1] = j;
  }

  // Gilbert-Ng-Peyton. The nonzeros of row i of L are the etree subtree
  // T_i: the paths from each j < i with A_{ij} != 0 up to i. Column j's
  // count is the number of T_i containing j, so count[] is built as deltas
  // whose subtree sums are the counts: per T_i containing j, 1 minus j's
  // children in T_i; and -1 per etree child c, whose T_c stops at c. An
  // etree leaf starts at 1 for its own T_j = {j}. Walking the columns in
  // postorder, A_{ij} makes j a leaf of T_i exactly when first[j] exceeds
  // the first[] of every earlier entry of row i, and adds 1. The least
  // common ancestor of two consecutive leaves of T_i (the root of the
  // earlier leaf's set in a path-compressed forest of finished columns)
  // subtracts 1, which sums to 1 - k at a node with k children in T_i.
  std::vector<std::int64_t>& count = res.col_counts;
  count.resize(un);
  for (int j = 0; j < n; ++j) count[j] = size[j] == 1 ? 1 : 0;
  std::vector<int> maxfirst(un, -1);  // largest first[j] seen per row
  std::vector<int> prevleaf(un, -1);  // last leaf seen per row subtree
  std::vector<int> ancestor(un);      // disjoint sets of finished columns
  std::iota(ancestor.begin(), ancestor.end(), 0);
  for (int k = 0; k < n; ++k) {
    const int j = post[k];
    if (parent[j] != -1) --count[parent[j]];
    for (int u : a.neighbors(perm[j])) {
      const int i = inv[u];
      if (i <= j || first[j] <= maxfirst[i]) continue;
      maxfirst[i] = first[j];
      const int jprev = prevleaf[i];
      prevleaf[i] = j;
      ++count[j];
      if (jprev == -1) continue;
      int q = jprev;
      while (q != ancestor[q]) q = ancestor[q];
      for (int s = jprev; s != q;) {
        const int up = ancestor[s];
        ancestor[s] = q;
        s = up;
      }
      --count[q];
    }
    if (parent[j] != -1) ancestor[j] = parent[j];
  }
  for (int j = 0; j < n; ++j) {
    if (parent[j] != -1) count[parent[j]] += count[j];
    res.factor_nnz += count[j];
  }
  return res;
}

}  // namespace treesched
