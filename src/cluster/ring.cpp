#include "cluster/ring.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace treesched::cluster {

namespace {

/// FNV-1a over `text`. Placement must be identical across processes and
/// standard-library implementations (std::hash is neither), because a
/// second router — or the test predicting which backend a spec lands
/// on — has to agree with this one byte-for-byte.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::uint64_t spec_key(std::string_view spec) { return mix64(fnv1a(spec)); }

HashRing::HashRing(int vnodes) : vnodes_(vnodes < 1 ? 1 : vnodes) {}

std::uint64_t HashRing::point_hash(std::string_view node, int replica) {
  return mix64(fnv1a(node) ^ mix64(static_cast<std::uint64_t>(replica)));
}

std::size_t HashRing::add(std::string_view node) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == node) {
      if (!present_[i]) {
        present_[i] = true;
        for (int r = 0; r < vnodes_; ++r) {
          points_.push_back(
              Point{point_hash(node, r), static_cast<std::uint32_t>(i)});
        }
        std::sort(points_.begin(), points_.end(),
                  [](const Point& a, const Point& b) {
                    return a.at < b.at || (a.at == b.at && a.node < b.node);
                  });
      }
      return i;
    }
  }
  const std::size_t index = nodes_.size();
  nodes_.emplace_back(node);
  present_.push_back(true);
  points_.reserve(points_.size() + static_cast<std::size_t>(vnodes_));
  for (int r = 0; r < vnodes_; ++r) {
    points_.push_back(
        Point{point_hash(node, r), static_cast<std::uint32_t>(index)});
  }
  // Ties broken by node index so two nodes hashing onto the same point
  // (possible, if absurdly unlikely) still order deterministically.
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.at < b.at || (a.at == b.at && a.node < b.node);
            });
  return index;
}

void HashRing::remove(std::string_view node) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == node && present_[i]) {
      present_[i] = false;
      std::erase_if(points_, [i](const Point& p) { return p.node == i; });
      return;
    }
  }
}

std::optional<std::size_t> HashRing::pick(std::uint64_t key) const {
  std::optional<std::size_t> picked;
  walk(key, [&](std::size_t node) {
    picked = node;
    return true;
  });
  return picked;
}

bool HashRing::walk(
    std::uint64_t key,
    const std::function<bool(std::size_t node)>& visit) const {
  if (points_.empty()) return false;
  // First point at or clockwise-after the key's own ring position. The
  // key is a spec key — already a mixed 64-bit value — but one more
  // mix64 keeps adversarially chosen keys from aiming at a specific arc
  // for free.
  const std::uint64_t at = mix64(key);
  auto it = std::lower_bound(
      points_.begin(), points_.end(), at,
      [](const Point& p, std::uint64_t v) { return p.at < v; });
  // Walk clockwise visiting each distinct node once. Ring order defines
  // the failover sequence, so a fixed-size seen set keeps the walk
  // O(points) worst case without allocation in the common short walk.
  std::vector<bool> seen(nodes_.size(), false);
  std::size_t distinct = 0;
  const std::size_t live =
      static_cast<std::size_t>(
          std::count(present_.begin(), present_.end(), true));
  for (std::size_t step = 0; step < points_.size() && distinct < live;
       ++step, ++it) {
    if (it == points_.end()) it = points_.begin();
    if (seen[it->node]) continue;
    seen[it->node] = true;
    ++distinct;
    if (visit(it->node)) return true;
  }
  return false;
}

}  // namespace treesched::cluster
