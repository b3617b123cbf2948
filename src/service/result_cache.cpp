#include "service/result_cache.hpp"

#include <functional>
#include <utility>

#include "util/hash.hpp"

namespace treesched {

std::size_t ResultKeyHash::operator()(const ResultKey& k) const noexcept {
  std::uint64_t h = mix64(k.tree_uid);
  h = mix64(h ^ std::hash<std::string>{}(k.algo));
  h = mix64(h ^ static_cast<std::uint64_t>(k.p));
  h = mix64(h ^ k.memory_cap);
  return static_cast<std::size_t>(h);
}

ResultCache::ResultCache(std::size_t byte_budget, unsigned shards)
    : byte_budget_(byte_budget) {
  if (shards == 0) shards = 1;
  shard_budget_ = byte_budget_ == 0 ? 0 : std::max<std::size_t>(byte_budget_ / shards, 1);
  shards_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::shard_for(const ResultKey& key) {
  // Re-mix the map hash so shard choice and in-shard bucket choice use
  // independent bits.
  const std::uint64_t h = mix64(ResultKeyHash{}(key) ^ 0xc0ffee1234abcdefULL);
  return *shards_[h % shards_.size()];
}

CachedResultPtr ResultCache::get(const ResultKey& key) {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

CachedResultPtr ResultCache::peek(const ResultKey& key) {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void ResultCache::put(const ResultKey& key, CachedResultPtr value) {
  if (!enabled() || !value) return;
  const std::size_t cost = value->bytes();
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Overwrite in place (same key recomputed: two identical misses
    // computed at once, or clear() raced a compute). Keeps the LRU
    // position fresh.
    shard.bytes -= it->second->second->bytes();
    shard.bytes += cost;
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  } else {
    shard.lru.emplace_front(key, std::move(value));
    shard.map.emplace(key, shard.lru.begin());
    shard.bytes += cost;
    ++shard.insertions;
  }
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    const auto victim = std::prev(shard.lru.end());
    shard.bytes -= victim->second->bytes();
    shard.map.erase(victim->first);
    shard.lru.erase(victim);
    ++shard.evictions;
  }
}

CacheStats ResultCache::stats() const {
  CacheStats out;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.evictions += shard->evictions;
    out.insertions += shard->insertions;
    out.entries += shard->map.size();
    out.bytes += shard->bytes;
  }
  return out;
}

void ResultCache::clear() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->map.clear();
    shard->bytes = 0;
  }
}

}  // namespace treesched
