#include "service/instance_store.hpp"

#include <bit>
#include <string>
#include <utility>

#include "util/hash.hpp"

namespace treesched {

namespace {

struct HashAcc {
  std::uint64_t state = 0x5eed5eed5eed5eedULL;
  void feed(std::uint64_t v) { state = mix64(state ^ v); }
};

// One interned instance: the tree and its analysis in one allocation.
struct Interned {
  explicit Interned(Tree t) : tree(std::move(t)), analysis(tree) {}
  Tree tree;
  TreeAnalysis analysis;
};

}  // namespace

TreeHash tree_fingerprint(const Tree& tree) {
  HashAcc acc;
  const NodeId n = tree.size();
  acc.feed(static_cast<std::uint64_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    acc.feed(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(tree.parent(i))));
    acc.feed(tree.output_size(i));
    acc.feed(tree.exec_size(i));
    acc.feed(std::bit_cast<std::uint64_t>(tree.work(i)));
  }
  return acc.state;
}

bool trees_identical(const Tree& a, const Tree& b) {
  if (a.size() != b.size()) return false;
  for (NodeId i = 0; i < a.size(); ++i) {
    // Work compares bitwise, matching tree_fingerprint: floating == would
    // make a NaN-weighted tree unequal to itself and defeat interning.
    if (a.parent(i) != b.parent(i) || a.output_size(i) != b.output_size(i) ||
        a.exec_size(i) != b.exec_size(i) ||
        std::bit_cast<std::uint64_t>(a.work(i)) !=
            std::bit_cast<std::uint64_t>(b.work(i))) {
      return false;
    }
  }
  return true;
}

std::size_t tree_bytes(const Tree& tree) {
  // Per node: parent id, output/exec sizes, work, one CSR child slot, one
  // child_begin offset and the analysis's postorder slot. Sizes, not
  // capacities — close enough for a budget that guards against unbounded
  // growth, and independent of allocator rounding.
  const auto n = static_cast<std::size_t>(tree.size());
  return sizeof(Tree) + sizeof(TreeAnalysis) +
         n * (2 * sizeof(NodeId) + 2 * sizeof(MemSize) + sizeof(double) +
              sizeof(NodeId) + TreeAnalysis::kBytesPerNode);
}

InstanceStore::InstanceStore(InstanceStoreConfig config) : config_(config) {}

Result<TreeHandle, ServiceError> InstanceStore::try_intern(Tree tree) {
  const TreeHash hash = tree_fingerprint(tree);
  const std::size_t cost = tree_bytes(tree);
  const std::lock_guard<std::mutex> lock(mutex_);
  auto [it, end] = by_hash_.equal_range(hash);
  for (; it != end; ++it) {
    if (trees_identical(*it->second.tree, tree)) {
      ++hits_;
      return it->second;
    }
  }
  if (config_.max_bytes != 0 && bytes_ + cost > config_.max_bytes) {
    ++rejected_;
    return ServiceError{
        ErrorCode::kStoreFull,
        "instance store full: " + std::to_string(bytes_) + " bytes held + " +
            std::to_string(cost) + " for this tree exceeds the " +
            std::to_string(config_.max_bytes) + "-byte budget",
        nullptr};
  }
  ++misses_;
  bytes_ += cost;
  const auto interned = std::make_shared<const Interned>(std::move(tree));
  const TreeHandle handle{
      std::shared_ptr<const Tree>(interned, &interned->tree), hash,
      ++next_uid_, &interned->analysis};
  by_hash_.emplace(hash, handle);
  return handle;
}

TreeHandle InstanceStore::intern(Tree tree) {
  Result<TreeHandle, ServiceError> result = try_intern(std::move(tree));
  if (!result.ok()) throw_error(result.error());
  return std::move(result).value();
}

InstanceStore::Stats InstanceStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {by_hash_.size(), hits_, misses_, rejected_, bytes_};
}

std::size_t InstanceStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return by_hash_.size();
}

void InstanceStore::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  by_hash_.clear();
  bytes_ = 0;
}

}  // namespace treesched
