#pragma once
// Builds the experimental data set (the paper's §6.2 at laptop scale).
//
// The paper uses 608 assembly trees from 76 UF-collection matrices ordered
// with MeTiS and amd, with relaxed amalgamation caps 1/2/4/16. We rebuild
// the same pipeline with synthetic matrices:
//  * 2D grid Laplacians + geometric nested dissection (the MeTiS analogue),
//  * 3D grid Laplacians + nested dissection,
//  * random symmetric patterns + minimum degree (the amd analogue),
//  * random symmetric patterns + reverse Cuthill-McKee,
// each put through symbolic Cholesky + relaxed amalgamation (η caps
// 1/2/4/16) + the paper's (η, µ) weight formulas, plus directly synthesized
// assembly-like trees for the largest sizes (front size ~ sqrt of subtree
// size, the 2D-ND scaling law).

#include <string>
#include <vector>

#include "core/tree.hpp"
#include "util/random.hpp"

namespace treesched {

struct DatasetEntry {
  std::string name;
  Tree tree;
};

struct DatasetParams {
  /// Multiplies all instance sizes; 1.0 keeps the default bench runtime
  /// around a minute, larger values approach the paper's tree sizes.
  double scale = 1.0;
  std::uint64_t seed = 42;
  /// Amalgamation caps applied to each matrix (the paper's variants).
  std::vector<std::int64_t> amalgamations{1, 2, 4, 16};
};

/// Builds the full campaign data set.
std::vector<DatasetEntry> build_dataset(const DatasetParams& params);

/// One assembly tree from a 2D grid + nested dissection + amalgamation z.
Tree grid2d_assembly_tree(int nx, int ny, std::int64_t z);

/// One assembly tree from a 3D grid + nested dissection + amalgamation z.
Tree grid3d_assembly_tree(int nx, int ny, int nz, std::int64_t z);

/// One assembly tree from a random pattern + minimum degree + amalgamation.
Tree random_md_assembly_tree(int n, double avg_degree, std::int64_t z,
                             Rng& rng);

/// Directly synthesized assembly-like tree with front sizes following the
/// sqrt-of-subtree scaling.
Tree synthetic_assembly_tree(NodeId n, double depth_bias, Rng& rng);

/// Limits applied to a tree spec BEFORE any allocation or filesystem
/// access happens. The defaults are fully permissive (trusted CLI
/// callers); network front-ends tighten both knobs because the spec is
/// raw client input — `random:2000000000:1` is otherwise a one-line
/// memory bomb and `file:/etc/passwd` an arbitrary file probe.
struct TreeSpecOptions {
  /// Upper bound on the node count a generator spec may request
  /// (`random:<n>`, `synthetic:<n>`, and `grid:<nx>` via nx*nx).
  /// 0 = unlimited. Node counts must always fit NodeId (int32).
  std::uint64_t max_nodes = 0;
  /// false refuses `file:` specs outright (server started without
  /// --tree-dir). When true and `file_dir` is non-empty, the path must
  /// be a plain relative name confined inside `file_dir` (absolute
  /// paths and "." / ".." components rejected), and a failed read
  /// answers with the spec and what failed (cannot open, not a
  /// treesched-tree v1 file, truncated or malformed), never the
  /// resolved path or a byte of the file. When true and `file_dir` is
  /// empty the path is used as given (CLI trust), and read errors keep
  /// read_tree_file's wording.
  bool allow_file = true;
  std::string file_dir;
  /// Upper bound on the size of a `file:` tree file, checked against
  /// the on-disk size BEFORE any byte is read — max_nodes bounds what a
  /// parsed tree may allocate, but without this a client could point
  /// the server at a multi-gigabyte file and make it read the whole
  /// thing just to fail the parse. 0 = unlimited (CLI trust).
  std::uint64_t max_file_bytes = 0;
};

/// Resolves a protocol tree spec — the `<tree-spec>` token of a request
/// line, shared by every front-end that resolves specs:
///   file:<path>             a treesched-tree v1 file
///   random:<n>:<seed>       random weighted tree
///   grid:<nx>:<z>           2D-grid assembly tree, amalgamation cap z >= 1
///   synthetic:<n>:<seed>    assembly-like synthetic tree
/// Throws std::invalid_argument naming the offending spec (file paths
/// containing ':' are not supported — rename the file). Numeric fields
/// must be non-negative decimal integers; negative or overflowing
/// values get a descriptive invalid_argument instead of wrapping.
Tree tree_from_spec(const std::string& spec);

/// As above, with limits enforced before anything is allocated or read.
Tree tree_from_spec(const std::string& spec, const TreeSpecOptions& opts);

}  // namespace treesched
