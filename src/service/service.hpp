#pragma once
// The scheduling service (layer 3 of src/service/): a high-throughput
// request engine over the SchedulerRegistry, with ONE submission path:
//
//   Ticket t = service.submit(req);   // every request goes through here
//   ServiceResult r = t.wait();       // response, or typed ServiceError
//
// submit() admits the request into the deadline-aware priority queue
// (service/request_queue.hpp, one mutex) under its priority/deadline_ms
// fields and pairs it with one thread-pool job; whenever a pool worker
// frees up it takes the most urgent admitted request (Interactive before
// Batch before Bulk, EDF within a class, aging against starvation). The
// compute engine behind it looks results up in one cache
// (service/result_cache.hpp, a 16-shard exact LRU):
//
//   request --> algorithm table --> validate --> cache lookup --> hit? answer
//                                                     |
//                                                   miss --> scheduler +
//                                                   simulator, put in cache
//
// The constructor builds the algorithm table from every name in the
// SchedulerRegistry. Registration happens during static initialization
// (the built-ins, a test binary's TestGate) and no service is a static
// object, so the table sees the whole roster. Only each entry's two
// histograms are set later, once, so every lookup is lock-free.
//
// Failures are values: a ticket resolves to Result<ScheduleResponse,
// ServiceError> with a machine-readable code (service/errors.hpp) —
// kUnknownAlgorithm, kInvalidResources, kDeadlineExpired, kQueueFull,
// kCancelled, kSchedulerFailure, kStoreFull. Cancelling a still-queued
// ticket removes it from the queue (counted in QueueStats) and resolves
// it with kCancelled; cancelling anything else is a no-op returning
// false.
//
// The two pre-v2 entry points — schedule() and schedule_batch() — are
// thin wrappers over submit() (batch = N tickets + ordered collect), so
// determinism, cache accounting, priority ordering and the destructor's
// drain guarantee are enforced in exactly one place. The wrappers
// translate errors back into the legacy conventions (thrown exceptions /
// ScheduleResponse::error).
//
// Guarantees:
//  * Determinism: a response carries exactly the (makespan, peak memory,
//    schedule) a direct SchedulerRegistry call would produce — schedulers
//    are deterministic, and cached results are shared. Priority and
//    deadline fields are never part of the cache key: they change when
//    a request is answered, not what the answer is.
//  * Cache accounting: every miss computes, so answers with cache_hit
//    match cache_stats().hits and the rest match misses. Two identical
//    misses in flight at once both compute and both answer a miss (the
//    second put rewrites an identical value). Sequential-only algorithms
//    normalize p to 1 in the key, so a cross-p sweep hits one entry.
//    With the cache disabled (cache_bytes = 0) no counter moves and every
//    request pays its own compute — the honest uncached baseline.
//  * Failure isolation: errors are per-ticket values; one bad request
//    cannot poison a batch. Failed computations are never cached, and
//    identical requests that fail each get the same typed error.
//  * Drain: the destructor waits until every admitted request has been
//    answered — it counts servicers, not tickets, so tickets abandoned
//    without wait() (and cancelled tickets) cannot deadlock the drain.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/registry.hpp"
#include "service/instance_store.hpp"
#include "service/request.hpp"
#include "service/request_queue.hpp"
#include "service/result_cache.hpp"
#include "service/ticket.hpp"
#include "util/result.hpp"

namespace treesched {

struct ServiceConfig {
  /// Result-cache budget; 0 disables caching (every request recomputes).
  std::size_t cache_bytes = ResultCache::kDefaultByteBudget;
  /// Validate every computed schedule (sched/validate.hpp, including the
  /// request's memory cap) before caching it — defense in depth; the
  /// answer's scores come from the check's own replay. Off by default:
  /// the simulator already rejects precedence violations.
  bool validate = false;
  /// Admission-queue tuning (all submissions flow through the queue).
  RequestQueueConfig queue;
  /// Instance-store byte budget (0 = unbudgeted); when set, intern()
  /// throws StoreFull and try_intern() returns kStoreFull past it.
  InstanceStoreConfig store;
  /// Metrics registry the service records into (stage histograms,
  /// per-algorithm distributions) and reports its cache/queue/store/pool
  /// counters through (one collector feeding both `stats` and the
  /// Prometheus exposition). null = the service creates a private one;
  /// share a registry to report front-end counters beside the service's.
  std::shared_ptr<obs::MetricsRegistry> registry;
};

class SchedulingService {
 public:
  explicit SchedulingService(ServiceConfig config = {});

  /// Waits for every admitted request to be answered (all tickets
  /// settle) before tearing down. Tickets nobody waits on and cancelled
  /// tickets are covered: the drain counts servicer jobs, one per
  /// admission, each of which runs to completion.
  ~SchedulingService();

  /// Interns a tree into the instance store; the handle is what requests
  /// carry. Repeated interns of identical trees share one instance. A
  /// new tree past ServiceConfig::store.max_bytes is rejected with the
  /// typed kStoreFull error.
  [[nodiscard]] Result<TreeHandle, ServiceError> try_intern(Tree tree);

  /// Legacy surface of try_intern: throws StoreFull on rejection.
  TreeHandle intern(Tree tree);

  /// THE submission path: admits `req` under its priority/deadline_ms
  /// fields and returns the ticket that will resolve to its
  /// ServiceResult. Called from a pool worker (a nested fan-out), the
  /// request is computed synchronously instead of queued — the worker
  /// participates like a parallel_for caller, which rules out
  /// self-deadlock; such requests resolve immediately, are invisible to
  /// queue_stats(), and cannot be cancelled.
  [[nodiscard]] Ticket submit(ScheduleRequest req);

  /// Latency fast path: answers `req` immediately iff it is a pure
  /// result-cache hit — no admission queue, no pool job, no ticket.
  /// Safe to call from a front-end's I/O thread; a hit costs one shard
  /// lock. nullopt means "not answerable here" (cache disabled, an
  /// unknown algorithm, resources that would fail validation, or a
  /// plain miss): fall back to submit(), which produces the typed
  /// error or computes — and records the one authoritative cache miss
  /// (a probe miss counts nothing).
  [[nodiscard]] std::optional<ScheduleResponse> try_cached(
      const ScheduleRequest& req);

  // --- legacy wrappers, all delegating to submit() ---------------------

  /// submit(req).wait(), rethrowing the legacy exception on error (the
  /// scheduler's own exception when one caused it). Unlike v1's
  /// queue-bypassing synchronous path, this flows through the admission
  /// queue: with a bounded queue (RequestQueueConfig::max_pending) it
  /// can throw QueueFull under load.
  ScheduleResponse schedule(const ScheduleRequest& req);

  /// N tickets + ordered collect; failures land per-request in
  /// ScheduleResponse::error. Deadlines are ignored on this path (the
  /// v1 batch contract — use submit() for deadline-aware batches).
  /// Requests flow through the admission queue under their own
  /// priorities — and, unlike the v1 queue-bypassing batch, a bounded
  /// queue (max_pending) can reject items with kQueueFull.
  std::vector<ScheduleResponse> schedule_batch(
      const std::vector<ScheduleRequest>& reqs);

  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] QueueStats queue_stats() const { return queue_->stats(); }
  /// Admission-to-dequeue waits (ns) over the metrics window of the
  /// requests of class `cls` (their submitted class) that reached a
  /// worker: the queue_wait stage histogram.
  [[nodiscard]] obs::HistogramSnapshot queue_wait_window(Priority cls) const {
    return h_queue_wait_[static_cast<std::size_t>(cls)]->windowed_snapshot();
  }
  [[nodiscard]] InstanceStore::Stats store_stats() const {
    return store_.stats();
  }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

  /// The registry this service records into (the configured one, or the
  /// private default). Its snapshot is what `stats` and /metrics report:
  /// the service's collector (queue totals and per-class counters, cache,
  /// store, pool), then the stage-histogram summaries.
  [[nodiscard]] obs::MetricsRegistry& registry() const { return *registry_; }
  [[nodiscard]] const std::shared_ptr<obs::MetricsRegistry>&
  registry_ptr() const {
    return registry_;
  }

  /// Drops all cached results (counters survive; interned trees stay).
  void clear_cache() { cache_.clear(); }

 private:
  /// One registered algorithm. `caps` is read on every probe without a
  /// virtual call. The two histograms are created through the registry
  /// on the algorithm's first computed miss, so a series appears only
  /// for algorithms that ran, and later misses record into them directly.
  struct Algorithm {
    SchedulerPtr scheduler;
    SchedulerCapabilities caps;
    std::once_flag histograms_once;
    obs::Histogram* compute_seconds = nullptr;
    obs::Histogram* peak_memory = nullptr;
  };

  /// The single enforcement point: looks the algorithm up, validates,
  /// probes the cache, computes on a miss and puts the result, and
  /// classifies every failure into a ServiceError. Never throws. Mutable
  /// `req` because it stamps the compute stages and hands the stamps
  /// back in the response.
  ServiceResult evaluate(ScheduleRequest& req);

  /// Wires the stage histograms and the counters' collector into
  /// registry_. Called once from the constructor.
  void init_metrics();

  /// Feeds the per-class and aggregate stage histograms from a settled
  /// request's stamps (queued requests only; inline worker submissions
  /// have no admit/dequeue stamps and skip the queue stages).
  void record_stage_metrics(const ScheduleRequest& req);

  /// Runs `algo` on `req` and scores the schedule.
  CachedResultPtr compute(const ScheduleRequest& req, Algorithm& algo);

  /// Waits out `tickets` and folds each result into the batch response
  /// shape, in ticket order.
  static std::vector<ScheduleResponse> collect_ordered(
      std::vector<Ticket> tickets);

  /// Services one admission-queue pop: answers every expired entry with
  /// kDeadlineExpired and computes the live one, if any. One call per
  /// admitted entry is enqueued on the shared pool; any call may answer a
  /// request other than the one whose admission enqueued it — that is
  /// what makes class preemption work on a FIFO pool — and a call whose
  /// entry was cancelled finds correspondingly less work.
  void drain_one();

  ServiceConfig config_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  /// Collector liveness guard: collectors capture a weak_ptr to this and
  /// bail once the service is gone, so a shared registry that outlives
  /// the service degrades to missing samples instead of UB.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  /// Stage histograms, indexed by priority class; [kPriorityClasses] is
  /// the class="all" aggregate (the one the decomposition test and the
  /// stats-verb quantiles read). Raw unit: nanoseconds.
  obs::Histogram* h_queue_wait_[kPriorityClasses + 1] = {};
  obs::Histogram* h_dispatch_ = nullptr;
  obs::Histogram* h_compute_[kPriorityClasses + 1] = {};
  obs::Histogram* h_e2e_[kPriorityClasses + 1] = {};
  InstanceStore store_;
  ResultCache cache_;
  /// Shared with every queued Ticket so cancel() stays safe even after
  /// the service is destroyed (the queue is drained by then, so such a
  /// cancel finds nothing and returns false).
  std::shared_ptr<RequestQueue> queue_;

  /// Every registered algorithm, by name. Filled by the constructor;
  /// only the entries' histogram pointers change after that.
  std::unordered_map<std::string, Algorithm> algorithms_;

  /// Active servicers — pool-submitted drain jobs plus in-progress inline
  /// worker computations, each registered before its entry is admitted;
  /// the destructor waits for zero so nothing outlives the service.
  std::mutex async_mutex_;
  std::condition_variable async_cv_;
  std::size_t async_outstanding_ = 0;
};

}  // namespace treesched
