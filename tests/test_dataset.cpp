#include "campaign/dataset.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sequential/postorder.hpp"
#include "service/instance_store.hpp"

namespace treesched {
namespace {

TEST(Dataset, Grid2dAssemblyTreeIsValid) {
  Tree t = grid2d_assembly_tree(12, 12, 4);
  EXPECT_GT(t.size(), 10);
  EXPECT_LE(t.size(), 144);
  EXPECT_GT(postorder(t).peak, 0u);
  EXPECT_GT(t.total_work(), 0.0);
}

TEST(Dataset, Grid3dAssemblyTreeIsValid) {
  Tree t = grid3d_assembly_tree(5, 5, 5, 2);
  EXPECT_GT(t.size(), 5);
  EXPECT_LE(t.size(), 125);
}

TEST(Dataset, RandomMdAssemblyTreeIsValid) {
  Rng rng(3);
  Tree t = random_md_assembly_tree(150, 4.0, 4, rng);
  EXPECT_GT(t.size(), 5);
  EXPECT_LE(t.size(), 150);
}

TEST(Dataset, AmalgamationShrinksTrees) {
  const Tree t1 = grid2d_assembly_tree(10, 10, 1);
  const Tree t16 = grid2d_assembly_tree(10, 10, 16);
  EXPECT_GT(t1.size(), t16.size());
}

TEST(Dataset, SyntheticAssemblyTreeHasHeavyRoot) {
  Rng rng(5);
  Tree t = synthetic_assembly_tree(500, 1.0, rng);
  EXPECT_EQ(t.size(), 500);
  EXPECT_EQ(t.output_size(t.root()), 0u);
  // Inner nodes near the root should be heavier than typical leaves
  // (sqrt-of-subtree law): root work above the median work.
  std::vector<double> works;
  for (NodeId i = 0; i < t.size(); ++i) works.push_back(t.work(i));
  std::sort(works.begin(), works.end());
  EXPECT_GT(t.work(t.root()), works[works.size() / 2]);
}

TEST(Dataset, BuildDatasetSmallScale) {
  DatasetParams params;
  params.scale = 0.05;
  params.amalgamations = {1, 4};
  auto ds = build_dataset(params);
  ASSERT_GT(ds.size(), 10u);
  std::set<std::string> names;
  for (const auto& e : ds) {
    EXPECT_FALSE(e.name.empty());
    EXPECT_GE(e.tree.size(), 1);
    names.insert(e.name);
  }
  EXPECT_EQ(names.size(), ds.size());  // unique names
}

TEST(TreeSpec, BoundedOverloadRejectsHostileSpecsBeforeAllocation) {
  TreeSpecOptions opts;
  opts.max_nodes = 2'000'000;
  opts.allow_file = false;
  // Huge, negative, non-numeric and overflowing counts: each is one
  // typed invalid_argument thrown before any node vector is allocated.
  for (const char* spec :
       {"random:2000000000:1", "random:-5:1", "random:abc:1",
        "synthetic:999999999999999999999:1", "grid:80000:80000:2"}) {
    EXPECT_THROW((void)tree_from_spec(spec, opts), std::invalid_argument)
        << spec;
  }
  EXPECT_THROW((void)tree_from_spec("file:/etc/passwd", opts),
               std::invalid_argument)
      << "file: specs are refused when the front-end disallows them";
  // In-bounds specs still generate, and the unbounded overload keeps the
  // CLI's unrestricted behavior.
  EXPECT_EQ(tree_from_spec("random:500:1", opts).size(), 500);
  EXPECT_EQ(tree_from_spec("random:500:1").size(), 500);
}

TEST(TreeSpec, NegativeCountsAreNamedInTheError) {
  try {
    (void)tree_from_spec("random:-5:1");
    FAIL() << "a negative node count parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("-5"), std::string::npos)
        << e.what();
  }
}

TEST(TreeSpec, ZeroAmalgamationIsRejectedAtParse) {
  // z = 0 names the spec and the field; it is refused before the grid
  // pattern, the ordering and the factorization are built.
  try {
    (void)tree_from_spec("grid:1414:0");
    FAIL() << "grid:1414:0 resolved";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("grid:1414:0"), std::string::npos) << what;
    EXPECT_NE(what.find("z"), std::string::npos) << what;
  }
}

// Spec -> (tree size, tree_fingerprint). Answers carry tree=<fingerprint>,
// the router routes on it and the result cache keys on it, so a change to
// how a spec resolves must leave every one of these trees bit-identical.
struct GoldenSpec {
  const char* spec;
  NodeId size;
  TreeHash fingerprint;
};

constexpr GoldenSpec kGoldenSpecs[] = {
    {"grid:1:1", 1, 0xf65c2bd6326fc36bULL},
    {"grid:1:2", 1, 0xf65c2bd6326fc36bULL},
    {"grid:1:4", 1, 0xf65c2bd6326fc36bULL},
    {"grid:1:16", 1, 0xf65c2bd6326fc36bULL},
    {"grid:2:1", 2, 0xdaa5cbadf2ad75b7ULL},
    {"grid:2:2", 1, 0xc750c4f7334d5627ULL},
    {"grid:2:4", 1, 0xc750c4f7334d5627ULL},
    {"grid:2:16", 1, 0xc750c4f7334d5627ULL},
    {"grid:10:1", 72, 0x49ba02f416b8572eULL},
    {"grid:10:2", 38, 0x21a8e433cd39b5bfULL},
    {"grid:10:4", 22, 0xfacd54133641c3dbULL},
    {"grid:10:16", 8, 0x1cdddaa2a5e7d1baULL},
    {"grid:21:1", 310, 0x3ef95e377f5d9a7fULL},
    {"grid:21:2", 164, 0x860d5f03c14886c5ULL},
    {"grid:21:4", 94, 0x0118d99b2cd650e6ULL},
    {"grid:21:16", 33, 0x63fa6e00d734eef5ULL},
    {"grid:50:1", 1700, 0x3825dd41a237630dULL},
    {"grid:50:2", 909, 0xbfbdd052834444cfULL},
    {"grid:50:4", 494, 0xc7ca1cf87809a126ULL},
    {"grid:50:16", 157, 0xd4a4b5392c2e4385ULL},
    {"grid:80:1", 4608, 0x3eac9623ab20dc31ULL},
    {"grid:80:2", 2432, 0x1ceac42840de171eULL},
    {"grid:80:4", 1310, 0x64c9a86376b3a893ULL},
    {"grid:80:16", 391, 0xd34c7275e7e39c8dULL},
    {"grid:120:1", 9878, 0x898cfaaa08a33e34ULL},
    {"grid:120:2", 5233, 0xb8c2cb487a5abf37ULL},
    {"grid:120:4", 2672, 0x2c6e9311cd722941ULL},
    {"grid:120:16", 865, 0x9a82ed6bcae84ec2ULL},
    {"synthetic:1:0", 1, 0xb218dcdc76ed6690ULL},
    {"synthetic:1:1", 1, 0x907d8ec792634a4bULL},
    {"synthetic:1:4294967295", 1, 0x8bc1e0d6111b1d0cULL},
    {"synthetic:1:1099511627776", 1, 0x9ae77b517ee0bbfcULL},
    {"synthetic:2:0", 2, 0x1b63e6f0c7f1c894ULL},
    {"synthetic:2:1", 2, 0x260d7d774c6fe931ULL},
    {"synthetic:2:4294967295", 2, 0x8b0e2d0377219b2dULL},
    {"synthetic:2:1099511627776", 2, 0x7787677193c259c9ULL},
    {"synthetic:300:0", 300, 0x6890018d6f8ca8c7ULL},
    {"synthetic:300:1", 300, 0x9380ce46996f80c9ULL},
    {"synthetic:300:4294967295", 300, 0x08f9a090186443a5ULL},
    {"synthetic:300:1099511627776", 300, 0x7122744b404d64efULL},
    {"synthetic:1700:0", 1700, 0xfe5f008e24252efeULL},
    {"synthetic:1700:1", 1700, 0x5dd15a2c7a58ad54ULL},
    {"synthetic:1700:4294967295", 1700, 0x393d9c0d0c05ca5aULL},
    {"synthetic:1700:1099511627776", 1700, 0x26585fb681b69c6dULL},
    {"synthetic:6000:0", 6000, 0xec4512197b892c09ULL},
    {"synthetic:6000:1", 6000, 0xbbd0371caeea7716ULL},
    {"synthetic:6000:4294967295", 6000, 0x54ef26406e18c759ULL},
    {"synthetic:6000:1099511627776", 6000, 0xaede19c74171d202ULL},
    {"random:1:0", 1, 0x021b755949753bc0ULL},
    {"random:1:7", 1, 0x18a7326e48da2dfaULL},
    {"random:500:0", 500, 0xb004d91d61215f37ULL},
    {"random:500:7", 500, 0x693ef6480f51ba6fULL},
    {"random:5000:0", 5000, 0xb01ae4a67bedb1c4ULL},
    {"random:5000:7", 5000, 0xe19c10a9a7cec68aULL},
};

TEST(TreeSpec, ResolvesToGoldenTrees) {
  for (const GoldenSpec& golden : kGoldenSpecs) {
    const Tree tree = tree_from_spec(golden.spec);
    EXPECT_EQ(tree.size(), golden.size) << golden.spec;
    EXPECT_EQ(tree_fingerprint(tree), golden.fingerprint) << golden.spec;
  }
}

TEST(Dataset, DeterministicForFixedSeed) {
  DatasetParams params;
  params.scale = 0.05;
  params.amalgamations = {2};
  auto a = build_dataset(params);
  auto b = build_dataset(params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].name, b[k].name);
    ASSERT_EQ(a[k].tree.size(), b[k].tree.size());
    for (NodeId i = 0; i < a[k].tree.size(); ++i) {
      EXPECT_EQ(a[k].tree.output_size(i), b[k].tree.output_size(i));
      EXPECT_DOUBLE_EQ(a[k].tree.work(i), b[k].tree.work(i));
    }
  }
}

}  // namespace
}  // namespace treesched
