#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace treesched::obs {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) < rank) continue;
    if (i >= bounds.size()) {
      // Overflow bucket: clamp to the largest finite bound.
      return bounds.empty() ? 0.0 : static_cast<double>(bounds.back());
    }
    const double hi = static_cast<double>(bounds[i]);
    const double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
    const double in_bucket = static_cast<double>(counts[i]);
    if (in_bucket <= 0.0) return hi;
    const double before = static_cast<double>(seen) - in_bucket;
    return lo + (hi - lo) * ((rank - before) / in_bucket);
  }
  return bounds.empty() ? 0.0 : static_cast<double>(bounds.back());
}

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("histogram needs bounds");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("histogram bounds must be strictly sorted");
  }
  for (unsigned i = 0; i < kShards; ++i) {
    auto& shard = shards_.emplace_back();
    shard.buckets = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
    shard.windows = std::vector<Window>(kWindowSlots);
    for (Window& w : shard.windows) {
      w.buckets = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
    }
  }
}

namespace {
// Stable per-thread shard slot: threads take consecutive slots on first
// use, so up to kShards recorders never collide.
unsigned thread_slot() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}
}  // namespace

void Histogram::record_at(std::uint64_t v, std::uint64_t now) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  Shard& shard = shards_[thread_slot() % kShards];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(v, std::memory_order_relaxed);
  // Window view: claim the current epoch's slot (CAS from whatever
  // stale epoch it held and zero it), then add. A recorder that loses
  // the CAS adds into the fresh slot; one racing the winner's zeroing
  // can lose its add from the window — bounded, boundary-only, and
  // never visible in the lifetime arrays above.
  const std::uint64_t epoch = now / kWindowPeriodNs + 1;  // +1: 0 = unused
  Window& w = shard.windows[epoch % kWindowSlots];
  std::uint64_t tag = w.epoch.load(std::memory_order_relaxed);
  if (tag != epoch &&
      w.epoch.compare_exchange_strong(tag, epoch,
                                      std::memory_order_relaxed)) {
    w.sum.store(0, std::memory_order_relaxed);
    for (auto& b : w.buckets) b.store(0, std::memory_order_relaxed);
  }
  w.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  w.sum.fetch_add(v, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  out.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (std::size_t i = 0; i < out.counts.size(); ++i) {
      out.counts[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
    out.sum += shard.sum.load(std::memory_order_relaxed);
  }
  // The total derives from the buckets, so the +Inf cumulative bucket
  // can never lag a concurrently bumped finite bucket — the exposition
  // stays monotonic in le even while recorders race the snapshot.
  for (std::uint64_t c : out.counts) out.count += c;
  return out;
}

HistogramSnapshot Histogram::windowed_snapshot_at(std::uint64_t now) const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  out.counts.assign(bounds_.size() + 1, 0);
  const std::uint64_t epoch = now / kWindowPeriodNs + 1;
  const std::uint64_t oldest =
      epoch > kWindowSlots ? epoch - kWindowSlots + 1 : 1;
  for (const Shard& shard : shards_) {
    for (const Window& w : shard.windows) {
      const std::uint64_t tag = w.epoch.load(std::memory_order_relaxed);
      if (tag < oldest || tag > epoch) continue;  // aged out or unused
      for (std::size_t i = 0; i < out.counts.size(); ++i) {
        out.counts[i] += w.buckets[i].load(std::memory_order_relaxed);
      }
      out.sum += w.sum.load(std::memory_order_relaxed);
    }
  }
  for (std::uint64_t c : out.counts) out.count += c;
  return out;
}

void SlidingCounter::add_at(std::uint64_t n, std::uint64_t now) noexcept {
  const std::uint64_t epoch = now / kWindowPeriodNs + 1;
  Slot& slot = slots_[epoch % kWindowSlots];
  std::uint64_t tag = slot.epoch.load(std::memory_order_relaxed);
  if (tag != epoch &&
      slot.epoch.compare_exchange_strong(tag, epoch,
                                         std::memory_order_relaxed)) {
    slot.value.store(0, std::memory_order_relaxed);
  }
  slot.value.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t SlidingCounter::windowed_at(std::uint64_t now) const noexcept {
  const std::uint64_t epoch = now / kWindowPeriodNs + 1;
  const std::uint64_t oldest =
      epoch > kWindowSlots ? epoch - kWindowSlots + 1 : 1;
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) {
    const std::uint64_t tag = slot.epoch.load(std::memory_order_relaxed);
    if (tag < oldest || tag > epoch) continue;
    total += slot.value.load(std::memory_order_relaxed);
  }
  return total;
}

const std::vector<std::uint64_t>& Histogram::latency_bounds_ns() {
  static const std::vector<std::uint64_t> kBounds = [] {
    std::vector<std::uint64_t> b;
    // 1us..500us, 1ms..500ms in 1-2-5 steps, then 1s/2s/5s/10s.
    for (std::uint64_t decade : {1'000ULL, 1'000'000ULL}) {
      for (std::uint64_t m : {1, 2, 5, 10, 20, 50, 100, 200, 500}) {
        b.push_back(decade * static_cast<std::uint64_t>(m));
      }
    }
    for (std::uint64_t s : {1, 2, 5, 10}) b.push_back(s * 1'000'000'000ULL);
    return b;
  }();
  return kBounds;
}

const std::vector<std::uint64_t>& Histogram::bytes_bounds() {
  static const std::vector<std::uint64_t> kBounds = [] {
    std::vector<std::uint64_t> b;
    for (std::uint64_t v = 1024; v <= (1ULL << 34); v *= 4) b.push_back(v);
    return b;
  }();
  return kBounds;
}

std::vector<std::pair<std::string, std::uint64_t>>
RegistrySnapshot::stats_pairs() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const MetricSample& s : samples) {
    if (s.stats_key.empty()) continue;
    const double v = std::max(0.0, s.value);
    out.emplace_back(s.stats_key, static_cast<std::uint64_t>(v));
  }
  for (const HistogramSample& h : histograms) {
    if (h.stats_key.empty()) continue;
    // Latency histograms (ns -> s scale) quote quantiles in integer
    // microseconds; anything else stays in its raw unit.
    const double div = h.scale == 1e-9 ? 1'000.0 : 1.0;
    const char* suffix = h.scale == 1e-9 ? "_us" : "";
    out.emplace_back(h.stats_key + "_count", h.snap.count);
    out.emplace_back(h.stats_key + "_window_count", h.window.count);
    // Quantiles describe the sliding window (what the service is doing
    // NOW); a quiet window falls back to lifetime so the keys never
    // go blank on an idle service.
    const HistogramSnapshot& q_src = h.window.count > 0 ? h.window : h.snap;
    for (auto [q, tag] :
         {std::pair<double, const char*>{0.50, "_p50"},
          std::pair<double, const char*>{0.90, "_p90"},
          std::pair<double, const char*>{0.99, "_p99"}}) {
      out.emplace_back(h.stats_key + tag + suffix,
                       static_cast<std::uint64_t>(q_src.quantile(q) / div));
    }
  }
  return out;
}

namespace {
std::string index_key(const std::string& name, const std::string& labels) {
  std::string k = name;
  k.push_back('\x01');
  k += labels;
  return k;
}
}  // namespace

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& labels,
                                      const std::string& help,
                                      std::vector<std::uint64_t> bounds,
                                      double scale,
                                      const std::string& stats_key) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = index_key(name, labels);
  if (const auto it = index_.find(key); it != index_.end()) {
    return histograms_[it->second].metric;
  }
  auto& entry = histograms_.emplace_back(std::move(bounds), scale);
  entry.name = name;
  entry.labels = labels;
  entry.help = help;
  entry.stats_key = stats_key;
  index_.emplace(key, histograms_.size() - 1);
  return entry.metric;
}

void MetricsRegistry::register_collector(Collector fn) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(fn));
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot out;
  for (const Collector& fn : collectors_) fn(out);
  for (const HistogramEntry& e : histograms_) {
    out.histograms.push_back(HistogramSample{
        e.name, e.labels, e.help, e.scale, e.stats_key, e.metric.snapshot(),
        e.metric.windowed_snapshot()});
  }
  return out;
}

}  // namespace treesched::obs
