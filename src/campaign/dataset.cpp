#include "campaign/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "spmatrix/amalgamation.hpp"
#include "spmatrix/assembly.hpp"
#include "spmatrix/etree.hpp"
#include "spmatrix/ordering.hpp"
#include "spmatrix/sparse.hpp"
#include "spmatrix/symbolic.hpp"
#include "trees/generators.hpp"
#include "trees/io.hpp"
#include "util/cli.hpp"
#include "util/confine.hpp"

namespace treesched {

namespace {

Tree pattern_to_assembly(const SparsePattern& a, const Ordering& perm,
                         std::int64_t z) {
  const SymbolicResult sym = symbolic_cholesky(a, perm);
  const AssemblyTree at = amalgamate(sym, z);
  return assembly_to_task_tree(at);
}

}  // namespace

Tree grid2d_assembly_tree(int nx, int ny, std::int64_t z) {
  const SparsePattern a = grid2d_pattern(nx, ny);
  return pattern_to_assembly(a, nested_dissection_2d(nx, ny), z);
}

Tree grid3d_assembly_tree(int nx, int ny, int nz, std::int64_t z) {
  const SparsePattern a = grid3d_pattern(nx, ny, nz);
  return pattern_to_assembly(a, nested_dissection_3d(nx, ny, nz), z);
}

Tree random_md_assembly_tree(int n, double avg_degree, std::int64_t z,
                             Rng& rng) {
  const SparsePattern a = random_pattern(n, avg_degree, rng);
  return pattern_to_assembly(a, minimum_degree_ordering(a), z);
}

Tree synthetic_assembly_tree(NodeId n, double depth_bias, Rng& rng) {
  // Random topology, then assembly-style weights: each node gets
  // eta in [1, 16] and mu = 1 + round(c * sqrt(subtree node count)), the
  // front-size scaling of 2D nested dissection. The topology is
  // random_tree's, drawn node by node without building that tree.
  if (n < 1) throw std::invalid_argument("synthetic_assembly_tree: n >= 1");
  RandomTreeParams params;
  params.n = n;
  params.depth_bias = depth_bias;
  std::vector<NodeId> parent(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    parent[i] = random_tree_node(params, i, rng).parent;
  }
  // parent[i] < i: one descending pass sums every subtree.
  std::vector<std::int64_t> subtree_nodes(static_cast<std::size_t>(n), 1);
  for (NodeId i = n - 1; i > 0; --i) {
    subtree_nodes[parent[i]] += subtree_nodes[i];
  }
  std::vector<MemSize> out(static_cast<std::size_t>(n));
  std::vector<MemSize> exec(static_cast<std::size_t>(n));
  std::vector<double> work(static_cast<std::size_t>(n));
  const double scale = rng.uniform_real(0.5, 2.0);
  for (NodeId i = 0; i < n; ++i) {
    const auto eta = static_cast<std::int64_t>(1 + rng.uniform(16));
    auto mu = static_cast<std::int64_t>(
        1.0 + scale * std::sqrt(static_cast<double>(subtree_nodes[i])));
    mu = std::max<std::int64_t>(mu, 1);
    const AssemblyWeights w = assembly_weights(eta, mu);
    // The root of a factorization has an empty contribution block.
    out[i] = parent[i] == kNoNode ? 0 : w.output_size;
    exec[i] = w.exec_size;
    work[i] = w.work;
  }
  return Tree(std::move(parent), std::move(out), std::move(exec),
              std::move(work));
}

std::vector<DatasetEntry> build_dataset(const DatasetParams& params) {
  std::vector<DatasetEntry> out;
  Rng rng(params.seed);
  const double s = std::sqrt(std::max(0.05, params.scale));
  auto sz = [&](int base) {
    return std::max(4, static_cast<int>(std::lround(base * s)));
  };

  auto add = [&](std::string name, Tree tree) {
    // Tiny scales can round different base sizes to the same dimensions;
    // keep names unique regardless.
    for (const auto& e : out) {
      if (e.name == name) {
        name += "+";
      }
    }
    out.push_back({std::move(name), std::move(tree)});
  };

  // 2D grids + nested dissection (MeTiS analogue).
  for (int base : {24, 40, 64, 96}) {
    const int nx = sz(base);
    for (std::int64_t z : params.amalgamations) {
      std::ostringstream name;
      name << "grid2d-" << nx << "x" << nx << "-nd-z" << z;
      add(name.str(), grid2d_assembly_tree(nx, nx, z));
    }
  }
  // Anisotropic 2D grid.
  {
    const int nx = sz(120), ny = sz(24);
    for (std::int64_t z : params.amalgamations) {
      std::ostringstream name;
      name << "grid2d-" << nx << "x" << ny << "-nd-z" << z;
      add(name.str(), grid2d_assembly_tree(nx, ny, z));
    }
  }
  // 3D grids + nested dissection.
  for (int base : {8, 12, 16}) {
    const int nx = sz(base);
    for (std::int64_t z : params.amalgamations) {
      std::ostringstream name;
      name << "grid3d-" << nx << "^3-nd-z" << z;
      add(name.str(), grid3d_assembly_tree(nx, nx, nx, z));
    }
  }
  // Random symmetric matrices + minimum degree (amd analogue).
  for (int base : {300, 600, 1200}) {
    const int n = sz(base);
    for (double deg : {3.0, 6.0}) {
      for (std::int64_t z : params.amalgamations) {
        std::ostringstream name;
        name << "randmat-" << n << "-deg" << deg << "-md-z" << z;
        add(name.str(), random_md_assembly_tree(n, deg, z, rng));
      }
    }
  }
  // Direct synthetic assembly trees (largest sizes).
  for (int base : {2000, 8000, 20000}) {
    const auto n = static_cast<NodeId>(sz(base));
    for (double bias : {0.0, 2.0, 6.0}) {
      std::ostringstream name;
      name << "synth-" << n << "-bias" << bias;
      add(name.str(), synthetic_assembly_tree(n, bias, rng));
    }
  }
  return out;
}


namespace {

/// Parses one numeric field of a tree spec as a non-negative decimal
/// integer. Rejects negative values (no sign accepted at all) and turns
/// std::out_of_range's useless what() into a message naming the field —
/// the same contract request_line.cpp's parse_uint_field gives protocol
/// fields. `max_value` 0 means "only the 64-bit range bounds it"; values
/// below `min_value` are rejected too.
std::uint64_t parse_spec_uint(const std::string& spec, const char* field,
                              const std::string& value,
                              std::uint64_t max_value,
                              std::uint64_t min_value = 0) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument("tree spec \"" + spec + "\": " + field +
                                " must be a non-negative integer, got \"" +
                                value + "\"");
  }
  std::uint64_t parsed = 0;
  try {
    parsed = std::stoull(value);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("tree spec \"" + spec + "\": " + field +
                                " value \"" + value +
                                "\" does not fit in 64 bits");
  }
  if (max_value != 0 && parsed > max_value) {
    throw std::invalid_argument(
        "tree spec \"" + spec + "\": " + field + " value " + value +
        " exceeds this front-end's limit of " + std::to_string(max_value));
  }
  if (parsed < min_value) {
    throw std::invalid_argument("tree spec \"" + spec + "\": " + field +
                                " value " + value + " is below the minimum " +
                                "of " + std::to_string(min_value));
  }
  return parsed;
}

}  // namespace

Tree tree_from_spec(const std::string& spec, const TreeSpecOptions& opts) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("tree spec \"" + spec +
                                "\" (want kind:args, e.g. random:500:1)");
  }
  const std::string kind = spec.substr(0, colon);
  // Specs use ':' separators; reuse split_csv by swapping them in. File
  // paths with ':' are not supported (rename the file).
  std::string rest = spec.substr(colon + 1);
  for (char& c : rest) {
    if (c == ':') c = ',';
  }
  const std::vector<std::string> args = split_csv(rest);
  // Generator node counts must fit NodeId and respect the caller's cap.
  const std::uint64_t node_cap =
      opts.max_nodes != 0
          ? std::min<std::uint64_t>(opts.max_nodes,
                                    std::numeric_limits<NodeId>::max())
          : std::numeric_limits<NodeId>::max();
  if (kind == "file") {
    if (args.size() != 1) {
      throw std::invalid_argument("tree spec file:<path>");
    }
    if (!opts.allow_file) {
      throw std::invalid_argument(
          "file: tree specs are disabled on this front-end (start the "
          "server with --tree-dir DIR to allow them)");
    }
    std::string path = args[0];
    if (!opts.file_dir.empty() &&
        !confine_relative_path(opts.file_dir, args[0], path)) {
      throw std::invalid_argument(
          "file: tree spec path must be a plain relative name inside the "
          "server's tree directory (no absolute paths, no \".\" or \"..\")");
    }
    if (opts.max_file_bytes != 0) {
      // Byte budget enforced against the on-disk size before the first
      // read: max_nodes bounds the parsed tree, this bounds the read
      // itself. A stat error falls through to read_tree_file, whose
      // open failure carries the better message.
      std::error_code ec;
      const std::uintmax_t size = std::filesystem::file_size(path, ec);
      if (!ec && size > opts.max_file_bytes) {
        throw std::invalid_argument(
            "tree spec \"" + spec + "\": file is " + std::to_string(size) +
            " bytes, over this front-end's " +
            std::to_string(opts.max_file_bytes) + "-byte limit");
      }
    }
    if (opts.file_dir.empty()) return read_tree_file(path);
    // A confined spec is a network client's: its error names the spec
    // and what failed, never the resolved path (the server's directory)
    // or a byte of the file.
    const std::string failed = "tree spec \"" + spec + "\": ";
    std::ifstream in(path);
    if (!in) throw std::invalid_argument(failed + "cannot open the file");
    std::string header;  // read_tree's rule: blank and '#' lines lead
    while (std::getline(in, header) && (header.empty() || header[0] == '#')) {
    }
    if (header != "treesched-tree v1") {
      throw std::invalid_argument(failed + "not a treesched-tree v1 file");
    }
    in.clear();
    in.seekg(0);
    try {
      return read_tree(in);
    } catch (const std::exception&) {
      throw std::invalid_argument(failed +
                                  "the tree file is truncated or malformed");
    }
  }
  if (kind == "random") {
    if (args.size() != 2) {
      throw std::invalid_argument("tree spec random:<n>:<seed>");
    }
    Rng rng(parse_spec_uint(spec, "seed", args[1], 0));
    RandomTreeParams params;
    params.n = static_cast<NodeId>(parse_spec_uint(spec, "n", args[0],
                                                   node_cap));
    params.max_output = 100;
    params.max_exec = 20;
    params.min_work = 1.0;
    params.max_work = 50.0;
    return random_tree(params, rng);
  }
  if (kind == "grid") {
    if (args.size() != 2) {
      throw std::invalid_argument("tree spec grid:<nx>:<z>");
    }
    // A grid spec allocates ~nx*nx matrix rows before amalgamation, so
    // the node cap bounds nx*nx (and nx*nx must itself fit an int).
    const auto grid_cap = static_cast<std::uint64_t>(std::floor(
        std::sqrt(static_cast<double>(
            std::min<std::uint64_t>(node_cap,
                                    std::numeric_limits<int>::max())))));
    const int nx =
        static_cast<int>(parse_spec_uint(spec, "nx", args[0], grid_cap));
    // z >= 1 is checked here, before the pattern and the factorization
    // are built: amalgamate would reject z = 0 only after all of that.
    const auto z = static_cast<std::int64_t>(parse_spec_uint(
        spec, "z", args[1], std::numeric_limits<std::int64_t>::max(), 1));
    return grid2d_assembly_tree(nx, nx, z);
  }
  if (kind == "synthetic") {
    if (args.size() != 2) {
      throw std::invalid_argument("tree spec synthetic:<n>:<seed>");
    }
    Rng rng(parse_spec_uint(spec, "seed", args[1], 0));
    return synthetic_assembly_tree(
        static_cast<NodeId>(parse_spec_uint(spec, "n", args[0], node_cap)),
        2.0, rng);
  }
  throw std::invalid_argument("unknown tree spec kind \"" + kind +
                              "\" (file|random|grid|synthetic)");
}

Tree tree_from_spec(const std::string& spec) {
  return tree_from_spec(spec, TreeSpecOptions{});
}

}  // namespace treesched
