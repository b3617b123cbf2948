#pragma once
// Metrics registry (src/obs/): the one source of both operator views —
// the `stats` control verb and the Prometheus exposition on
// --metrics-port read the same snapshot.
//
// A snapshot holds two kinds of entries. Scalars are MetricSamples that
// *collectors* append at snapshot time: callbacks that read the state a
// component already keeps (CacheStats, QueueStats, the session counters,
// ...), so nothing is counted twice and nothing is counted on the hot
// path. Each sample carries its Prometheus name and labels and its
// `stats` key. Histograms are the one metric the registry owns: fixed
// buckets, cheap hot-path updates, snapshotable without stopping the
// world. Collectors run under the registry mutex; they must only read
// atomics or otherwise thread-safe state (or state of the one thread
// every snapshot consumer runs on).
//
// Hot-path contract: Histogram::record is relaxed atomic adds — no
// locks, no allocation, safe from any thread including the server's I/O
// thread and pool workers. Histograms shard their bucket arrays by
// thread so concurrent recorders don't fight over one cache line;
// shards merge at snapshot time.
//
// Value domain: histograms store unsigned integers (nanoseconds for
// latency, bytes for memory) and keep *exact* integer sums, so derived
// means compose — the sum of per-stage means equals the end-to-end mean
// when the stages partition the interval. `scale` only applies at
// export time (ns -> seconds for Prometheus).
//
// The registry hands out node-stable references: a `Histogram&`
// obtained once may be cached and hammered forever.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace treesched::obs {

/// Monotonic clock, nanoseconds. The one timestamp source for stage
/// stamps, histograms, and trace spans, so intervals subtract cleanly.
std::uint64_t now_ns() noexcept;

/// Sliding-window geometry shared by windowed histograms and counters:
/// a ring of epoch-tagged sub-windows merged at read time, covering the
/// most recent ~minute (12 x 5 s). A recorder claims its epoch's slot by
/// CAS and zeroes it before adding; records racing the zeroing at an
/// epoch boundary can be lost from the WINDOW view (never from the
/// lifetime view) — the window is an estimate by design, fully atomic so
/// the hot path takes no lock and stays TSan-clean.
inline constexpr unsigned kWindowSlots = 12;
inline constexpr std::uint64_t kWindowPeriodNs = 5'000'000'000ULL;

/// Merged view of one histogram: cumulative-free bucket counts plus the
/// exact integer sum/count. Quantiles interpolate linearly inside the
/// winning bucket (the standard Prometheus estimate).
struct HistogramSnapshot {
  std::vector<std::uint64_t> bounds;  ///< inclusive upper bounds, sorted
  std::vector<std::uint64_t> counts;  ///< bounds.size()+1; last = overflow
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  /// q in [0,1]; returns a value in the histogram's raw unit. Overflow
  /// quantiles clamp to the largest finite bound (nothing better is
  /// known about them).
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed-bucket histogram over unsigned integers. Buckets are chosen at
/// construction and never change; record() is a binary search plus
/// relaxed adds into a per-thread shard — once into the lifetime arrays
/// (monotonic, what Prometheus `_bucket`/`_sum`/`_count` export) and
/// once into the current epoch's window slot, so windowed_snapshot()
/// can answer "the last minute" without lifetime staleness.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void record(std::uint64_t v) noexcept { record_at(v, now_ns()); }
  /// Timestamp-injected record, for deterministic window tests.
  void record_at(std::uint64_t v, std::uint64_t now) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const;
  /// Merged view of the sub-windows still inside the sliding window at
  /// `now` (kWindowSlots x kWindowPeriodNs). Approximate at epoch
  /// boundaries; exact whenever no recorder races the read.
  [[nodiscard]] HistogramSnapshot windowed_snapshot() const {
    return windowed_snapshot_at(now_ns());
  }
  [[nodiscard]] HistogramSnapshot windowed_snapshot_at(
      std::uint64_t now) const;
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const {
    return bounds_;
  }

  /// Log-spaced 1-2-5 latency bounds, 1us .. 10s, in nanoseconds.
  static const std::vector<std::uint64_t>& latency_bounds_ns();
  /// Power-of-4 byte bounds, 1KiB .. 16GiB.
  static const std::vector<std::uint64_t>& bytes_bounds();

 private:
  static constexpr unsigned kShards = 8;
  /// One sub-window of one shard. `epoch` stores epoch+1 (0 = never
  /// used) so a fresh slot can't masquerade as epoch 0's live data.
  struct Window {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::atomic<std::uint64_t>> buckets;
  };
  struct Shard {
    alignas(64) std::atomic<std::uint64_t> sum{0};
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::vector<Window> windows;  ///< kWindowSlots, indexed epoch % slots
  };

  std::vector<std::uint64_t> bounds_;
  std::deque<Shard> shards_;
};

/// Windowed event counter: same epoch-tagged slot ring as the
/// histograms' window view, for rates that must reflect the last minute
/// (request and error counts feeding the SLO error-ratio gauges). It
/// only answers "how many in the window"; lifetime totals are the
/// owning component's counters, read by a collector.
class SlidingCounter {
 public:
  void inc(std::uint64_t n = 1) noexcept { add_at(n, now_ns()); }
  void add_at(std::uint64_t n, std::uint64_t now) noexcept;
  [[nodiscard]] std::uint64_t windowed() const noexcept {
    return windowed_at(now_ns());
  }
  [[nodiscard]] std::uint64_t windowed_at(std::uint64_t now) const noexcept;

 private:
  struct Slot {
    std::atomic<std::uint64_t> epoch{0};  ///< epoch+1; 0 = never used
    std::atomic<std::uint64_t> value{0};
  };
  Slot slots_[kWindowSlots];
};

enum class MetricKind { kCounter, kGauge };

/// One exported scalar, appended by a collector. `labels` is the
/// pre-rendered inner label string (e.g. `class="interactive"`), empty
/// for none. `stats_key` is the short key used by the `stats` control
/// verb. An empty `stats_key` means the sample only appears in the
/// Prometheus exposition; an empty `name` means it only appears on the
/// `stats` line (render_prometheus skips it).
struct MetricSample {
  std::string name;
  std::string labels;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  std::string stats_key;
};

/// One exported histogram. `scale` converts the raw integer unit to the
/// exposition unit (1e-9 for ns -> seconds); stats-verb quantiles are
/// emitted in microseconds when scale == 1e-9, raw otherwise.
struct HistogramSample {
  std::string name;
  std::string labels;
  std::string help;
  double scale = 1.0;
  std::string stats_key;
  HistogramSnapshot snap;    ///< lifetime (monotonic _bucket/_sum/_count)
  HistogramSnapshot window;  ///< sliding last-minute view (quantiles)
};

struct RegistrySnapshot {
  std::vector<MetricSample> samples;
  std::vector<HistogramSample> histograms;

  /// Flattens every stats_key'd entry to the (key, integer) pairs the
  /// `stats` verb speaks: scalars as-is (gauges clamp at zero),
  /// histograms as the lifetime <key>_count, the sliding-window
  /// <key>_window_count, and <key>_p50/p90/p99 quantiles computed over
  /// the WINDOW (in microseconds for scale 1e-9, raw units otherwise) —
  /// summaries describe current behavior, not process history. An empty
  /// window falls back to lifetime quantiles so a quiet service still
  /// reports what it last did.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  stats_pairs() const;
};

/// Collectors plus owned histograms. Histograms are get-or-create by
/// (name, labels); creation order is preserved in snapshots so exported
/// text is stable run to run.
class MetricsRegistry {
 public:
  using Collector = std::function<void(RegistrySnapshot&)>;

  Histogram& histogram(const std::string& name, const std::string& labels,
                       const std::string& help,
                       std::vector<std::uint64_t> bounds, double scale,
                       const std::string& stats_key = "");

  /// Collectors run at snapshot time in registration order, so their
  /// samples lead the stats line in that order, ahead of the histogram
  /// summaries.
  void register_collector(Collector fn);

  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  struct HistogramEntry {
    std::string name, labels, help, stats_key;
    double scale;
    Histogram metric;
    HistogramEntry(std::vector<std::uint64_t> bounds, double s)
        : scale(s), metric(std::move(bounds)) {}
  };

  mutable std::mutex mu_;
  std::deque<HistogramEntry> histograms_;
  std::map<std::string, std::size_t> index_;  ///< (name, labels) -> entry
  std::vector<Collector> collectors_;
};

}  // namespace treesched::obs
