#include "spmatrix/amalgamation.hpp"

#include <stdexcept>

namespace treesched {

AssemblyTree amalgamate(const SymbolicResult& symbolic,
                        std::int64_t max_amalgamation,
                        bool fundamental_supernodes) {
  const int n = static_cast<int>(symbolic.col_counts.size());
  if (max_amalgamation < 1) {
    throw std::invalid_argument("amalgamate: max_amalgamation >= 1");
  }
  const auto& parent = symbolic.etree_parent;
  const auto& mu = symbolic.col_counts;

  std::vector<int> num_children(static_cast<std::size_t>(n), 0);
  for (int j = 0; j < n; ++j) {
    if (parent[j] != -1) ++num_children[parent[j]];
  }

  // merged_into[c] = column whose group absorbed c's group (-1: c is a
  // group representative, i.e. the group's topmost column).
  std::vector<int> merged_into(static_cast<std::size_t>(n), -1);
  std::vector<std::int64_t> eta(static_cast<std::size_t>(n), 1);

  // Each column decides whether its group joins its parent's. Columns go
  // in increasing order, so every child's group is final when it decides
  // (its own children are smaller), and each parent sees its children in
  // increasing order, which the relaxed cap on eta[p] depends on (child
  // groups are rooted at the child column itself: merging always attaches
  // below the parent column).
  for (int c = 0; c < n; ++c) {
    const int p = parent[c];
    if (p == -1) continue;
    const bool fundamental = fundamental_supernodes && num_children[p] == 1 &&
                             mu[c] == mu[p] + 1;
    const bool relaxed = eta[p] + eta[c] <= max_amalgamation;
    if (fundamental || relaxed) {
      merged_into[c] = p;
      eta[p] += eta[c];
    }
  }

  // Group representative of every column. merged_into[c] > c always (groups
  // merge upwards), so a single descending pass resolves all chains.
  std::vector<int> group_of(static_cast<std::size_t>(n));
  for (int c = n - 1; c >= 0; --c) {
    group_of[c] = merged_into[c] == -1 ? c : group_of[merged_into[c]];
  }

  // Densely number the groups (representatives) and emit nodes.
  AssemblyTree out;
  std::vector<int> node_id(static_cast<std::size_t>(n), -1);
  int groups = 0;
  for (int c = 0; c < n; ++c) {
    if (group_of[c] == c) node_id[c] = groups++;
  }
  out.nodes.resize(static_cast<std::size_t>(groups));
  for (int c = 0; c < n; ++c) {
    if (group_of[c] != c) continue;
    AssemblyNode& node = out.nodes[node_id[c]];
    const int up = parent[c];
    node.parent = up == -1 ? -1 : node_id[group_of[up]];
    node.eta = eta[c];
    node.mu = mu[c];
  }
  out.node_of_column.resize(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    out.node_of_column[c] = node_id[group_of[c]];
  }
  return out;
}

}  // namespace treesched
