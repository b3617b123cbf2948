#include "spmatrix/etree.hpp"

#include <stdexcept>

namespace treesched {

std::vector<int> elimination_tree(const SparsePattern& a,
                                  const Ordering& perm) {
  const int n = a.size();
  if (static_cast<int>(perm.size()) != n) {
    throw std::invalid_argument("elimination_tree: bad permutation");
  }
  const Ordering inv = inverse_ordering(perm);
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  std::vector<int> ancestor(static_cast<std::size_t>(n), -1);
  for (int j = 0; j < n; ++j) {
    for (int u : a.neighbors(perm[j])) {
      int i = inv[u];
      if (i >= j) continue;
      // Walk from i to the root of its current subtree, compressing the
      // ancestor path onto j.
      int r = i;
      while (ancestor[r] != -1 && ancestor[r] != j) {
        const int next = ancestor[r];
        ancestor[r] = j;
        r = next;
      }
      if (ancestor[r] == -1) {
        ancestor[r] = j;
        parent[r] = j;
      }
    }
  }
  return parent;
}

}  // namespace treesched
