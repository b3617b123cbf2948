#include "spmatrix/symbolic.hpp"

#include <algorithm>
#include <stdexcept>

#include "spmatrix/etree.hpp"

namespace treesched {

SymbolicResult symbolic_cholesky(const SparsePattern& a,
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

}  // namespace treesched
