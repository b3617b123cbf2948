// The observability layer (src/obs/): histogram bucket math (inclusive
// upper bounds, overflow, shard merge), exact concurrent counting (the
// TSan job runs this file), registry get-or-create identity and
// snapshot ordering, the stats-verb projection of collector samples and
// histograms, golden Prometheus text exposition, Chrome trace JSON, and
// — the acceptance criterion worth pinning — per-stage histogram means
// summing to the end-to-end mean through a live SchedulingService.

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>

#include "obs/event_log.hpp"
#include "obs/prometheus.hpp"
#include "obs/stages.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "trees/generators.hpp"
#include "util/random.hpp"

namespace treesched {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricSample;
using obs::MetricsRegistry;
using obs::RegistrySnapshot;
using obs::Stage;
using obs::StageStamps;
using obs::Tracer;

// ---------------------------------------------------------------------------
// Histogram bucket math.
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BoundsAreInclusiveUpperBounds) {
  Histogram h({10, 20, 50});
  h.record(0);    // bucket 0 (<= 10)
  h.record(10);   // bucket 0: the bound itself lands below the fence
  h.record(11);   // bucket 1
  h.record(20);   // bucket 1
  h.record(50);   // bucket 2
  h.record(51);   // overflow
  h.record(1000); // overflow
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u) << "bounds.size() + 1 (overflow)";
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 2u);
  EXPECT_EQ(s.count, 7u) << "count derives from the buckets";
  EXPECT_EQ(s.sum, 0u + 10 + 11 + 20 + 50 + 51 + 1000)
      << "sums are exact integers, not bucket midpoints";
}

TEST(ObsHistogram, QuantilesInterpolateAndOverflowClamps) {
  Histogram h({100, 200, 400});
  for (int i = 0; i < 100; ++i) h.record(150);  // all in (100, 200]
  const HistogramSnapshot s = h.snapshot();
  // The standard Prometheus estimate: linear inside the winning bucket.
  EXPECT_NEAR(s.quantile(0.5), 150.0, 1.0);
  EXPECT_NEAR(s.quantile(1.0), 200.0, 1e-9);

  Histogram over({100});
  over.record(5000);
  over.record(9000);
  EXPECT_EQ(over.snapshot().quantile(0.99), 100.0)
      << "overflow quantiles clamp to the largest finite bound";

  EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
  EXPECT_EQ(HistogramSnapshot{}.mean(), 0.0);
}

TEST(ObsHistogram, ShardsMergeExactlyUnderConcurrentRecorders) {
  // More threads than shards, all hammering one histogram: the merged
  // snapshot must not lose a single record or nanosecond of sum.
  Histogram h(Histogram::latency_bounds_ns());
  constexpr int kThreads = 12;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record((static_cast<std::uint64_t>(t) + 1) * 1000 + i % 7);
      }
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      expected_sum += (static_cast<std::uint64_t>(t) + 1) * 1000 + i % 7;
    }
  }
  EXPECT_EQ(s.sum, expected_sum);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t c : s.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, s.count) << "count must equal the bucket total";
}

TEST(ObsCounter, ConcurrentIncrementsAreExact) {
  // The sliding window's counter under concurrent adds inside one
  // epoch. The slot is claimed first: adds racing the claim's zeroing
  // may be lost from the window by design (see kWindowSlots).
  obs::SlidingCounter c;
  const std::uint64_t now = 40 * obs::kWindowPeriodNs;
  c.add_at(0, now);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add_at(1, now);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.windowed_at(now), kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Registry identity, ordering, and the stats-verb projection.
// ---------------------------------------------------------------------------

/// Registers a collector that appends `samples` at every snapshot.
void add_samples(MetricsRegistry& reg, std::vector<MetricSample> samples) {
  reg.register_collector([samples = std::move(samples)](RegistrySnapshot& out) {
    out.samples.insert(out.samples.end(), samples.begin(), samples.end());
  });
}

MetricSample counter(std::string name, std::string labels, std::string help,
                     double v, std::string stats_key = "") {
  return MetricSample{std::move(name), std::move(labels), std::move(help),
                      obs::MetricKind::kCounter, v, std::move(stats_key)};
}

MetricSample gauge(std::string name, std::string labels, std::string help,
                   double v, std::string stats_key = "") {
  return MetricSample{std::move(name), std::move(labels), std::move(help),
                      obs::MetricKind::kGauge, v, std::move(stats_key)};
}

TEST(ObsRegistry, GetOrCreateIsKeyedByNameAndLabels) {
  MetricsRegistry reg;
  Histogram& a = reg.histogram("lat", "", "help", {1, 2}, 1.0);
  Histogram& b = reg.histogram("lat", "", "different help ignored", {1, 2},
                               1.0);
  EXPECT_EQ(&a, &b) << "same (name, labels) must return the same node";
  Histogram& c = reg.histogram("lat", "class=\"bulk\"", "help", {1, 2}, 1.0);
  EXPECT_NE(&a, &c) << "labels are part of the identity";
  EXPECT_THROW(reg.histogram("bad", "", "help", {2, 1}, 1.0),
               std::invalid_argument);
  EXPECT_EQ(reg.snapshot().histograms.size(), 2u)
      << "a histogram that failed to construct is not registered";
}

TEST(ObsRegistry, SnapshotRunsCollectorsFirstThenOwnedInOrder) {
  MetricsRegistry reg;
  reg.histogram("owned_a", "", "a", {10}, 1.0, "a").record(1);
  add_samples(reg, {counter("first_total", "", "f", 7.0, "first")});
  reg.histogram("owned_b", "", "b", {10}, 1.0, "b").record(2);
  add_samples(reg, {counter("second_total", "", "s", 2.0, "second")});
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 2u);
  EXPECT_EQ(snap.samples[0].name, "first_total")
      << "collectors run in registration order";
  EXPECT_EQ(snap.samples[1].name, "second_total");
  EXPECT_EQ(snap.samples[0].value, 7.0);
  EXPECT_EQ(snap.samples[1].value, 2.0);
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "owned_a") << "creation order";
  EXPECT_EQ(snap.histograms[1].name, "owned_b");
  const auto pairs = snap.stats_pairs();
  ASSERT_GE(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].first, "first") << "collector keys lead the stats line";
  EXPECT_EQ(pairs[1].first, "second");
  EXPECT_EQ(pairs[2].first, "a_count");
}

TEST(ObsRegistry, StatsPairsProjectKeyedEntriesOnly) {
  MetricsRegistry reg;
  add_samples(reg, {counter("keyed_total", "", "h", 3.0, "keyed"),
                    counter("prom_only_total", "", "h", 9.0),
                    gauge("depth", "", "h", -4.0, "depth"),
                    gauge("", "", "", 5.0, "stats_only")});
  Histogram& h =
      reg.histogram("lat_seconds", "", "h",
                    Histogram::latency_bounds_ns(), 1e-9, "lat");
  h.record(1500);  // 1.5us
  h.record(2500);
  const auto pairs = reg.snapshot().stats_pairs();
  auto find = [&](const std::string& key) -> const std::uint64_t* {
    for (const auto& [k, v] : pairs) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  ASSERT_NE(find("keyed"), nullptr);
  EXPECT_EQ(*find("keyed"), 3u);
  EXPECT_EQ(find("prom_only_total"), nullptr)
      << "empty stats_key means Prometheus-only";
  ASSERT_NE(find("depth"), nullptr);
  EXPECT_EQ(*find("depth"), 0u) << "gauges clamp at zero on the stats line";
  ASSERT_NE(find("stats_only"), nullptr) << "an empty name means stats-only";
  EXPECT_EQ(*find("stats_only"), 5u);
  ASSERT_NE(find("lat_count"), nullptr);
  EXPECT_EQ(*find("lat_count"), 2u);
  ASSERT_NE(find("lat_p50_us"), nullptr)
      << "scale 1e-9 histograms project quantiles in microseconds";
  EXPECT_LE(*find("lat_p50_us"), 10u);
  ASSERT_NE(find("lat_p99_us"), nullptr);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (golden).
// ---------------------------------------------------------------------------

TEST(ObsPrometheus, GoldenExposition) {
  MetricsRegistry reg;
  // One collector's scalars; the nameless stats-only sample between the
  // two cache series must not render.
  add_samples(reg, {counter("treesched_requests_total", "", "Requests seen",
                            5.0, "requests"),
                    gauge("treesched_conns", "", "Open connections", 2.0),
                    counter("treesched_cache_total", "kind=\"hit\"", "Cache",
                            3.0),
                    gauge("", "", "", 4.0, "stats_only"),
                    counter("treesched_cache_total", "kind=\"miss\"", "Cache",
                            1.0)});
  Histogram& h = reg.histogram("treesched_lat_seconds", "", "Latency",
                               {1000000000ull, 2000000000ull}, 1e-9);
  h.record(500000000);   // 0.5s -> bucket le=1
  h.record(1500000000);  // 1.5s -> bucket le=2
  h.record(9000000000);  // 9s -> overflow
  const std::string text = obs::render_prometheus(reg.snapshot());
  const std::string expected =
      "# HELP treesched_requests_total Requests seen\n"
      "# TYPE treesched_requests_total counter\n"
      "treesched_requests_total 5\n"
      "# HELP treesched_conns Open connections\n"
      "# TYPE treesched_conns gauge\n"
      "treesched_conns 2\n"
      "# HELP treesched_cache_total Cache\n"
      "# TYPE treesched_cache_total counter\n"
      "treesched_cache_total{kind=\"hit\"} 3\n"
      "treesched_cache_total{kind=\"miss\"} 1\n"
      "# HELP treesched_lat_seconds Latency\n"
      "# TYPE treesched_lat_seconds histogram\n"
      "treesched_lat_seconds_bucket{le=\"1\"} 1\n"
      "treesched_lat_seconds_bucket{le=\"2\"} 2\n"
      "treesched_lat_seconds_bucket{le=\"+Inf\"} 3\n"
      "treesched_lat_seconds_sum 11\n"
      "treesched_lat_seconds_count 3\n"
      "# HELP treesched_lat_seconds_window Latency (sliding last-minute "
      "window)\n"
      "# TYPE treesched_lat_seconds_window gauge\n"
      "treesched_lat_seconds_window{quantile=\"0.5\"} 1.5\n"
      "treesched_lat_seconds_window{quantile=\"0.9\"} 2\n"
      "treesched_lat_seconds_window{quantile=\"0.99\"} 2\n"
      "treesched_lat_seconds_window_count 3\n";
  EXPECT_EQ(text, expected);
}

TEST(ObsPrometheus, LabeledHistogramSeriesShareOneHeader) {
  MetricsRegistry reg;
  reg.histogram("s_seconds", "class=\"a\"", "h", {10}, 1.0).record(3);
  reg.histogram("s_seconds", "class=\"b\"", "h", {10}, 1.0).record(30);
  const std::string text = obs::render_prometheus(reg.snapshot());
  EXPECT_EQ(text.find("# TYPE s_seconds histogram"),
            text.rfind("# TYPE s_seconds histogram"))
      << "one TYPE line per metric name, not per series";
  EXPECT_NE(text.find("s_seconds_bucket{class=\"a\",le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("s_seconds_bucket{class=\"b\",le=\"10\"} 0"),
            std::string::npos)
      << "an overflow-only series still renders its finite buckets";
  EXPECT_NE(text.find("s_seconds_bucket{class=\"b\",le=\"+Inf\"} 1"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Stage stamps.
// ---------------------------------------------------------------------------

TEST(ObsStages, BetweenHandlesMissingAndBackwardStamps) {
  StageStamps st;
  EXPECT_FALSE(st.has(Stage::kAccept));
  EXPECT_EQ(st.between(Stage::kAccept, Stage::kFlush), 0u);
  st.stamp(Stage::kAccept, 100);
  st.stamp(Stage::kFlush, 350);
  EXPECT_TRUE(st.has(Stage::kAccept));
  EXPECT_EQ(st.between(Stage::kAccept, Stage::kFlush), 250u);
  EXPECT_EQ(st.between(Stage::kFlush, Stage::kAccept), 0u)
      << "never negative, even on clock-order violations";
  EXPECT_EQ(st.between(Stage::kAccept, Stage::kDequeue), 0u)
      << "missing far stamp";
}

// ---------------------------------------------------------------------------
// Tracer: ring recording, drops, Chrome trace JSON.
// ---------------------------------------------------------------------------

TEST(ObsTrace, RecordsOnlyWhileEnabledAndCountsDrops) {
  Tracer tracer;
  tracer.record("ignored", 0, 10);
  EXPECT_EQ(tracer.recorded(), 0u) << "disabled tracer records nothing";
  tracer.enable();
  for (std::uint64_t i = 0; i < Tracer::kRingSpans + 5; ++i) {
    tracer.record("span", i * 10, 5, i);
  }
  tracer.disable();
  tracer.record("late", 0, 1);
  EXPECT_EQ(tracer.recorded(), Tracer::kRingSpans + 5);
  EXPECT_EQ(tracer.dropped(), 5u) << "overwritten oldest-first";
  const std::vector<obs::SpanView> spans = tracer.snapshot();
  EXPECT_EQ(spans.size(), Tracer::kRingSpans);
  for (const obs::SpanView& s : spans) {
    EXPECT_STREQ(s.name, "span");
    EXPECT_GE(s.arg, 5u) << "the five oldest spans were overwritten";
  }
}

TEST(ObsTrace, InternedNamesAreStableAndDeduplicated) {
  Tracer tracer;
  std::string dynamic = "ParSubtrees";
  const char* a = tracer.intern_name(dynamic);
  dynamic[0] = 'X';  // the intern must have copied
  const char* b = tracer.intern_name("ParSubtrees");
  EXPECT_STREQ(a, "ParSubtrees");
  EXPECT_EQ(a, b) << "same name interns to the same pointer";
}

TEST(ObsTrace, ChromeTraceJsonCarriesEverySpan) {
  Tracer tracer;
  tracer.enable();
  tracer.record("compute", 2000, 1500, 42);
  tracer.record("queue_wait", 1000, 900, 42);
  tracer.disable();
  std::ostringstream os;
  const std::size_t written = tracer.write_chrome_trace(os);
  EXPECT_EQ(written, 2u) << "returns the span count (the dump reply)";
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos)
      << "complete events, the Perfetto-friendly phase";
  EXPECT_NE(json.find("\"name\":\"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"queue_wait\""), std::string::npos);
  // Balanced braces is a cheap well-formedness proxy without a JSON
  // parser in the test suite.
  long depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ObsTrace, ScopedSpanRecordsItsLifetime) {
  Tracer tracer;
  tracer.enable();
  { obs::ScopedSpan span(tracer, "scoped", 7); }
  tracer.disable();
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "scoped");
  EXPECT_EQ(spans[0].arg, 7u);
}

// ---------------------------------------------------------------------------
// Sliding windows: timestamp-injected records, so the minute-long decay
// runs in microseconds of test time.
// ---------------------------------------------------------------------------

TEST(ObsWindow, HistogramWindowDecaysButLifetimeIsMonotonic) {
  using obs::kWindowPeriodNs;
  using obs::kWindowSlots;
  Histogram h({10, 20, 50});
  const std::uint64_t base = 100 * kWindowPeriodNs;
  h.record_at(15, base);
  h.record_at(40, base + 6 * kWindowPeriodNs);

  HistogramSnapshot w = h.windowed_snapshot_at(base + 6 * kWindowPeriodNs);
  EXPECT_EQ(w.count, 2u) << "both records inside the first minute";
  EXPECT_EQ(w.sum, 55u);

  // kWindowSlots sub-windows cover the last minute: reading 12 epochs
  // after the FIRST record expires it while the second survives.
  w = h.windowed_snapshot_at(base + kWindowSlots * kWindowPeriodNs);
  EXPECT_EQ(w.count, 1u) << "the older record aged out of the window";
  EXPECT_EQ(w.sum, 40u);

  w = h.windowed_snapshot_at(base + 20 * kWindowSlots * kWindowPeriodNs);
  EXPECT_EQ(w.count, 0u) << "a long-idle window reads empty";
  EXPECT_EQ(w.sum, 0u);

  const HistogramSnapshot life = h.snapshot();
  EXPECT_EQ(life.count, 2u) << "lifetime view never decays";
  EXPECT_EQ(life.sum, 55u);
}

TEST(ObsWindow, SlidingCounterDecays) {
  using obs::kWindowPeriodNs;
  using obs::kWindowSlots;
  obs::SlidingCounter c;
  const std::uint64_t base = 40 * kWindowPeriodNs;
  c.add_at(3, base);
  c.add_at(4, base + 2 * kWindowPeriodNs);
  EXPECT_EQ(c.windowed_at(base + 2 * kWindowPeriodNs), 7u);
  EXPECT_EQ(c.windowed_at(base + kWindowSlots * kWindowPeriodNs), 4u)
      << "only the newer burst is still inside the minute";
  EXPECT_EQ(c.windowed_at(base + 3 * kWindowSlots * kWindowPeriodNs), 0u);
  // Re-use after full decay: slots are reclaimed, not poisoned.
  const std::uint64_t later = base + 5 * kWindowSlots * kWindowPeriodNs;
  c.add_at(9, later);
  EXPECT_EQ(c.windowed_at(later), 9u);
}

// ---------------------------------------------------------------------------
// Structured event log: JSON-lines shape, trace-id presence, escaping,
// truncation, and open-failure behavior — all against a local instance
// (EventLog::global() belongs to the binaries, not the tests).
// ---------------------------------------------------------------------------

namespace {
std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}
}  // namespace

TEST(ObsEventLog, WritesOneJsonObjectPerLine) {
  const std::string path = ::testing::TempDir() + "obs_event_log_test.jsonl";
  std::remove(path.c_str());
  obs::EventLog log;
  std::string error;
  ASSERT_TRUE(log.open(path, error)) << error;
  ASSERT_TRUE(log.enabled());
  log.emit("node_down", 42,
           {obs::EventLog::Field::u64("node", 3),
            obs::EventLog::Field::str("reason", "backend \"A\" hung\nup")});
  log.emit("drain_begin", 0, {obs::EventLog::Field::u64("conns", 2)});

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].front(), '{');
  EXPECT_EQ(lines[0].back(), '}');
  EXPECT_NE(lines[0].find("\"event\":\"node_down\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"trace_id\":42"), std::string::npos)
      << "a traced event carries its trace id";
  EXPECT_NE(lines[0].find("\"node\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\\\"A\\\""), std::string::npos)
      << "quotes inside string fields are escaped";
  EXPECT_EQ(lines[0].find('\n'), std::string::npos)
      << "control bytes never split a line";
  EXPECT_NE(lines[0].find("\"ts_ns\":"), std::string::npos);
  EXPECT_NE(lines[0].find("\"unix_ms\":"), std::string::npos);
  EXPECT_EQ(lines[1].find("\"trace_id\""), std::string::npos)
      << "trace_id 0 means untraced: the field is omitted";
  EXPECT_NE(lines[1].find("\"event\":\"drain_begin\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsEventLog, TruncatesOverlongLinesAtAFieldBoundary) {
  const std::string path = ::testing::TempDir() + "obs_event_log_trunc.jsonl";
  std::remove(path.c_str());
  obs::EventLog log;
  std::string error;
  ASSERT_TRUE(log.open(path, error)) << error;
  const std::string huge(4000, 'x');
  log.emit("slow_request", 7,
           {obs::EventLog::Field::u64("ms", 123),
            obs::EventLog::Field::str("detail", huge)});
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_LE(lines[0].size(), 1024u) << "one stack buffer, one write(2)";
  EXPECT_NE(lines[0].find("\"truncated\":1"), std::string::npos);
  EXPECT_EQ(lines[0].back(), '}') << "truncation keeps the line valid JSON";
  std::remove(path.c_str());
}

TEST(ObsEventLog, OpenFailureDisablesTheLog) {
  obs::EventLog log;
  std::string error;
  EXPECT_FALSE(log.open("/nonexistent_dir_treesched/x.jsonl", error));
  EXPECT_FALSE(log.enabled());
  EXPECT_FALSE(error.empty());
  log.emit("ignored", 0, {});  // must be a harmless no-op while disabled
}

// ---------------------------------------------------------------------------
// Span-pair wire codec: the `trace pull` format the cluster router's
// merged dump rides on.
// ---------------------------------------------------------------------------

TEST(ObsSpanPairs, EncodeDecodeRoundTrip) {
  std::vector<obs::SpanView> spans;
  spans.push_back({"net/parse", 1000, 50, 42, 0});
  spans.push_back({"compute:ParSubtrees", 1100, 900, 42, 3});
  std::vector<std::pair<std::string, std::uint64_t>> pairs;
  obs::encode_span_pairs(spans, obs::kTracePullMaxSpans, pairs);
  ASSERT_FALSE(pairs.empty());
  EXPECT_EQ(pairs[0].first, "spans");
  EXPECT_EQ(pairs[0].second, 2u);

  std::vector<obs::MergedSpan> out;
  ASSERT_TRUE(obs::decode_span_pairs(pairs, out));
  ASSERT_EQ(out.size(), 2u);
  // encode orders by start_ns; both orders below match that.
  EXPECT_EQ(out[0].name, "net/parse");
  EXPECT_EQ(out[0].start_ns, 1000u);
  EXPECT_EQ(out[0].dur_ns, 50u);
  EXPECT_EQ(out[0].arg, 42u);
  EXPECT_EQ(out[0].tid, 0u);
  EXPECT_EQ(out[1].name, "compute:ParSubtrees");
  EXPECT_EQ(out[1].tid, 3u);
}

TEST(ObsSpanPairs, TruncationKeepsTheLatestSpans) {
  std::vector<obs::SpanView> spans;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    spans.push_back({"s", i * 100, 10, i, 0});
  }
  std::vector<std::pair<std::string, std::uint64_t>> pairs;
  obs::encode_span_pairs(spans, 2, pairs);
  bool saw_truncated = false;
  for (const auto& [k, v] : pairs) {
    if (k == "truncated") {
      saw_truncated = true;
      EXPECT_EQ(v, 3u) << "reports how many spans were dropped";
    }
  }
  EXPECT_TRUE(saw_truncated);
  std::vector<obs::MergedSpan> out;
  ASSERT_TRUE(obs::decode_span_pairs(pairs, out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_GE(out[0].start_ns, 400u) << "only the latest spans survive";
  EXPECT_GE(out[1].start_ns, 400u);
}

TEST(ObsSpanPairs, DecodeRejectsStructuralBreakageButIgnoresUnknownKeys) {
  std::vector<obs::MergedSpan> out;
  // t0 without its n0: a broken span group.
  EXPECT_FALSE(obs::decode_span_pairs({{"spans", 1}, {"t0", 5}}, out));
  // Index mismatch: span 0 announced, span 1 encoded.
  EXPECT_FALSE(obs::decode_span_pairs(
      {{"spans", 1}, {"n1:x", 0}, {"t1", 1}, {"d1", 2}, {"a1", 3}}, out));
  // Unknown trailing keys (a newer backend's counters) are fine.
  std::vector<obs::SpanView> spans;
  spans.push_back({"ok", 10, 5, 0, 0});
  std::vector<std::pair<std::string, std::uint64_t>> pairs;
  obs::encode_span_pairs(spans, 16, pairs);
  pairs.emplace_back("future_counter", 99);
  out.clear();
  EXPECT_TRUE(obs::decode_span_pairs(pairs, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].name, "ok");
}

// ---------------------------------------------------------------------------
// Merged Chrome trace: one pid and one process_name metadata event per
// process, timestamps rebased to the earliest span cluster-wide.
// ---------------------------------------------------------------------------

TEST(ObsMergedTrace, OnePidAndProcessNamePerProcess) {
  std::vector<obs::ProcessSpans> procs;
  procs.push_back(
      {"router", 1, {{"router/upstream", 5000, 900, 42, 0}}});
  procs.push_back(
      {"node 127.0.0.1:4001", 2, {{"compute:ParSubtrees", 5200, 400, 42, 3}}});
  std::ostringstream os;
  const std::size_t written = obs::write_merged_chrome_trace(os, procs);
  EXPECT_EQ(written, 2u) << "metadata events don't count as spans";
  const std::string json = os.str();
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"router\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 127.0.0.1:4001\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"router/upstream\""), std::string::npos);
  EXPECT_NE(json.find("\"arg\":42"), std::string::npos)
      << "the shared trace id correlates spans across pids";
  EXPECT_NE(json.find("\"ts\":0"), std::string::npos)
      << "timestamps rebase to the earliest span across ALL processes";
  long depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// ---------------------------------------------------------------------------
// Steady-state stage decomposition through a live service: the sum of
// per-stage histogram means must reconstruct the end-to-end mean. The
// stamps share one clock and the sums are exact integers, so the match
// is by construction — the 10% window only absorbs requests still in
// flight at snapshot time (there are none: every ticket is waited).
// ---------------------------------------------------------------------------

TEST(ObsService, StageMeansSumToEndToEndMean) {
  SchedulingService service;
  Rng rng(7);
  RandomTreeParams params;
  params.n = 80;
  params.max_output = 40;
  params.max_exec = 15;
  params.min_work = 1.0;
  params.max_work = 30.0;
  const TreeHandle handle = service.intern(random_tree(params, rng));

  const Priority classes[] = {Priority::kInteractive, Priority::kBatch,
                              Priority::kBulk};
  std::vector<Ticket> tickets;
  for (int i = 0; i < 24; ++i) {
    ScheduleRequest req;
    req.tree = handle;
    req.algo = i % 2 == 0 ? "ParSubtrees" : "ParDeepestFirst";
    req.p = 4;
    req.priority = classes[i % 3];
    req.stamps.stamp(Stage::kAccept);
    req.stamps.stamp(Stage::kParse);
    tickets.push_back(service.submit(std::move(req)));
  }
  for (Ticket& t : tickets) {
    ASSERT_TRUE(t.wait().ok());
  }

  const RegistrySnapshot snap = service.registry().snapshot();
  auto mean_of = [&](const std::string& stats_key) -> double {
    for (const obs::HistogramSample& h : snap.histograms) {
      if (h.stats_key == stats_key) return h.snap.mean();
    }
    ADD_FAILURE() << "no histogram with stats_key " << stats_key;
    return 0.0;
  };
  const double queue_wait = mean_of("stage_queue_wait");
  const double dispatch = mean_of("stage_dispatch");
  const double compute = mean_of("stage_compute");
  const double e2e = mean_of("e2e");
  ASSERT_GT(e2e, 0.0);
  const double stage_sum = queue_wait + dispatch + compute;
  EXPECT_NEAR(stage_sum, e2e, 0.10 * e2e)
      << "queue_wait=" << queue_wait << " dispatch=" << dispatch
      << " compute=" << compute << " vs e2e=" << e2e;
}

}  // namespace
}  // namespace treesched
