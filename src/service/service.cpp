#include "service/service.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/simulator.hpp"
#include "obs/trace.hpp"
#include "sched/validate.hpp"
#include "util/thread_pool.hpp"

namespace treesched {

namespace {
using obs::Stage;

constexpr const char* kClassLabel[kPriorityClasses + 1] = {
    "interactive", "batch", "bulk", "all"};

/// Cache identity of `req`. Sequential-only algorithms ignore p, so every
/// p maps to one cache entry — a campaign's cross-p sweep of
/// Liu/BestPostorder/... computes each tree once and hits thereafter.
ResultKey key_for(const ScheduleRequest& req,
                  const SchedulerCapabilities& caps) {
  ResultKey key;
  key.tree_uid = req.tree.uid;
  key.algo = req.algo;
  key.p = caps.sequential_only ? 1 : req.p;
  key.memory_cap = req.memory_cap;
  return key;
}

/// kUnknownAlgorithm for a name the service's table lacks, carrying the
/// registry's own message, which lists the known names.
ServiceError unknown_algorithm(const std::string& algo) {
  try {
    (void)SchedulerRegistry::instance().create(algo);
    throw std::invalid_argument("service: " + algo +
                                " was registered after the service");
  } catch (const std::exception& e) {
    return ServiceError{ErrorCode::kUnknownAlgorithm, e.what(),
                        std::current_exception()};
  }
}
}  // namespace

SchedulingService::SchedulingService(ServiceConfig config)
    : config_(config),
      registry_(config.registry ? config.registry
                                : std::make_shared<obs::MetricsRegistry>()),
      store_(config.store),
      cache_(config.cache_bytes),
      queue_(std::make_shared<RequestQueue>(config.queue)) {
  const SchedulerRegistry& schedulers = SchedulerRegistry::instance();
  for (const std::string& name : schedulers.names()) {
    Algorithm& algo = algorithms_[name];
    algo.scheduler = schedulers.create(name);
    algo.caps = algo.scheduler->capabilities();
  }
  init_metrics();
}

void SchedulingService::init_metrics() {
  auto stage_hist = [&](const char* stage, std::size_t cls,
                        const std::string& stats_key) -> obs::Histogram* {
    std::string labels = "stage=\"";
    labels += stage;
    labels += "\",class=\"";
    labels += kClassLabel[cls];
    labels += "\"";
    return &registry_->histogram(
        "treesched_stage_seconds", labels,
        "Per-stage request latency by priority class",
        obs::Histogram::latency_bounds_ns(), 1e-9, stats_key);
  };
  for (std::size_t c = 0; c <= kPriorityClasses; ++c) {
    // Only the class="all" aggregates carry stats keys: the stats verb
    // stays bounded while Prometheus gets every class series.
    const bool agg = c == kPriorityClasses;
    h_queue_wait_[c] =
        stage_hist("queue_wait", c, agg ? "stage_queue_wait" : "");
    h_compute_[c] = stage_hist("compute", c, agg ? "stage_compute" : "");
    h_e2e_[c] = c == kPriorityClasses
                    ? &registry_->histogram(
                          "treesched_request_e2e_seconds", "",
                          "Admission-to-settlement request latency",
                          obs::Histogram::latency_bounds_ns(), 1e-9, "e2e")
                    : &registry_->histogram(
                          "treesched_request_e2e_seconds",
                          std::string("class=\"") + kClassLabel[c] + "\"",
                          "Admission-to-settlement request latency",
                          obs::Histogram::latency_bounds_ns(), 1e-9, "");
  }
  h_dispatch_ = stage_hist("dispatch", kPriorityClasses, "stage_dispatch");

  // The service's scalars: the cache/queue/store/pool accessors stay the
  // source of truth, and this collector projects them into both views at
  // snapshot time. All of them read atomics or take their own locks, so
  // a snapshot from any thread is safe.
  registry_->register_collector(
      [this, alive = std::weak_ptr<bool>(alive_)](obs::RegistrySnapshot& out) {
        if (alive.expired()) return;
        const CacheStats cs = cache_stats();
        const QueueStats qs = queue_stats();
        const InstanceStore::Stats ss = store_stats();
        const ThreadPool::Stats ps = ThreadPool::shared().stats();
        auto sample = [&](obs::MetricKind kind, const char* name,
                          const char* help, std::string labels, double v,
                          std::string key) {
          out.samples.push_back(obs::MetricSample{
              name, std::move(labels), help, kind, v, std::move(key)});
        };
        using enum obs::MetricKind;
        // Stats only: the all-class queue totals (Prometheus sums the
        // class series itself) and each class's queue-wait window p99.
        auto stat = [&](std::string key, double v) {
          sample(kGauge, "", "", "", v, std::move(key));
        };
        ClassQueueStats total;
        for (const ClassQueueStats& q : qs.by_class) {
          total.admitted += q.admitted;
          total.completed += q.completed;
          total.expired += q.expired;
          total.cancelled += q.cancelled;
          total.rejected += q.rejected;
        }
        stat("queue_pending", qs.pending());
        stat("queue_admitted", total.admitted);
        stat("queue_completed", total.completed);
        stat("queue_expired", total.expired);
        stat("queue_cancelled", total.cancelled);
        stat("queue_rejected", total.rejected);
        for (std::size_t c = 0; c < kPriorityClasses; ++c) {
          const ClassQueueStats& q = qs.by_class[c];
          const std::string cls =
              std::string("class=\"") + kClassLabel[c] + "\"";
          const std::string suffix = std::string("_") + kClassLabel[c];
          sample(kCounter, "treesched_queue_admitted_total",
                 "Requests pushed at admission, accepted or rejected", cls,
                 q.admitted, "queue_admitted" + suffix);
          sample(kCounter, "treesched_queue_rejected_total",
                 "Requests turned away at admission (queue full)", cls,
                 q.rejected, "queue_rejected" + suffix);
          sample(kCounter, "treesched_queue_completed_total",
                 "Requests popped live and handed to a worker", cls,
                 q.completed, "queue_completed" + suffix);
          sample(kCounter, "treesched_queue_expired_total",
                 "Requests whose deadline lapsed while queued", cls, q.expired,
                 "queue_expired" + suffix);
          sample(kCounter, "treesched_queue_cancelled_total",
                 "Requests removed while queued by cancel", cls, q.cancelled,
                 "queue_cancelled" + suffix);
          sample(kCounter, "treesched_queue_aged_total",
                 "Priority-class promotions granted to waiting requests", cls,
                 q.aged, "queue_aged" + suffix);
          sample(kGauge, "treesched_queue_pending", "Currently queued requests",
                 cls, q.pending, "queue_pending" + suffix);
          stat("queue_wait_p99_us" + suffix,
               queue_wait_window(static_cast<Priority>(c)).quantile(0.99) /
                   1000.0);
        }
        sample(kCounter, "treesched_cache_hits_total", "Result-cache hits", "",
               cs.hits, "cache_hits");
        sample(kCounter, "treesched_cache_misses_total", "Result-cache misses",
               "", cs.misses, "cache_misses");
        sample(kCounter, "treesched_cache_evictions_total",
               "Result-cache evictions", "", cs.evictions, "cache_evictions");
        sample(kGauge, "treesched_cache_entries", "Cached results resident", "",
               cs.entries, "cache_entries");
        sample(kGauge, "treesched_cache_bytes", "Result-cache bytes resident",
               "", cs.bytes, "cache_bytes");
        sample(kGauge, "treesched_store_trees", "Interned trees resident", "",
               ss.unique_trees, "store_trees");
        sample(kGauge, "treesched_store_bytes", "Instance-store bytes resident",
               "", ss.bytes, "store_bytes");
        sample(kCounter, "treesched_store_rejected_total",
               "Trees rejected by the instance-store byte budget", "",
               ss.rejected, "store_rejected");
        sample(kGauge, "treesched_pool_threads", "Shared thread-pool workers",
               "", ps.threads, "pool_threads");
        sample(kCounter, "treesched_pool_submitted_total",
               "Jobs enqueued on the shared pool", "", ps.submitted,
               "pool_submitted");
        sample(kCounter, "treesched_pool_executed_total",
               "Jobs finished on the shared pool", "", ps.executed,
               "pool_executed");
        sample(kGauge, "treesched_pool_pending",
               "Jobs enqueued, not yet picked up", "", ps.pending,
               "pool_pending");
      });
}

void SchedulingService::record_stage_metrics(const ScheduleRequest& req) {
  const auto& st = req.stamps;
  if (!st.has(Stage::kAdmit) || !st.has(Stage::kComputeEnd)) return;
  const auto cls = static_cast<std::size_t>(req.priority);
  const std::uint64_t queue_wait = st.between(Stage::kAdmit, Stage::kDequeue);
  const std::uint64_t dispatch =
      st.between(Stage::kDequeue, Stage::kComputeStart);
  const std::uint64_t compute =
      st.between(Stage::kComputeStart, Stage::kComputeEnd);
  const std::uint64_t e2e = st.between(Stage::kAdmit, Stage::kComputeEnd);
  h_queue_wait_[cls]->record(queue_wait);
  h_queue_wait_[kPriorityClasses]->record(queue_wait);
  h_dispatch_->record(dispatch);
  h_compute_[cls]->record(compute);
  h_compute_[kPriorityClasses]->record(compute);
  h_e2e_[cls]->record(e2e);
  h_e2e_[kPriorityClasses]->record(e2e);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    tracer.record("queue_wait", st.at(Stage::kAdmit), queue_wait,
                  req.tree.uid);
  }
}

SchedulingService::~SchedulingService() {
  // One registered servicer covers every queued entry from before it is
  // admitted until it is answered (nested worker submissions never touch
  // the queue — they compute synchronously), so once the count reaches
  // zero the queue is empty, every ticket has settled, and nothing still
  // references this service — tearing down cannot strand a ticket or
  // leave a drain touching freed state. Cancelled entries leave their
  // servicer job with less work, never with a dangling reference, and
  // abandoned tickets are irrelevant here: the drain counts servicers,
  // not waiters.
  std::unique_lock<std::mutex> lock(async_mutex_);
  async_cv_.wait(lock, [&] { return async_outstanding_ == 0; });
}

Result<TreeHandle, ServiceError> SchedulingService::try_intern(Tree tree) {
  return store_.try_intern(std::move(tree));
}

TreeHandle SchedulingService::intern(Tree tree) {
  return store_.intern(std::move(tree));
}

std::optional<ScheduleResponse> SchedulingService::try_cached(
    const ScheduleRequest& req) {
  if (!cache_.enabled() || !req.tree) return std::nullopt;
  // An unknown algorithm's typed error stays on the slow path.
  const auto found = algorithms_.find(req.algo);
  if (found == algorithms_.end()) return std::nullopt;
  const SchedulerCapabilities& caps = found->second.caps;
  try {
    // Sequential-only algorithms normalize p to 1 in the key, so an
    // invalid p could still collide with a cached entry: requests the
    // slow path would reject must never be answered from the cache.
    validate_resources(Resources{req.p, req.memory_cap}, caps, req.algo);
  } catch (...) {
    return std::nullopt;
  }
  CachedResultPtr result = cache_.peek(key_for(req, caps));
  if (!result) return std::nullopt;
  ScheduleResponse resp;
  resp.makespan = result->makespan;
  resp.peak_memory = result->peak_memory;
  resp.cache_hit = true;
  resp.stamps = req.stamps;  // no queue/compute stages on the fast path
  if (req.want_schedule) {
    resp.schedule = std::shared_ptr<const Schedule>(result, &result->schedule);
  }
  return resp;
}

ServiceResult SchedulingService::evaluate(ScheduleRequest& req) {
  req.stamps.stamp(Stage::kComputeStart);
  if (!req.tree || req.tree.analysis == nullptr) {
    return ServiceError{
        ErrorCode::kInvalidResources,
        "service: request carries no tree (intern one first)", nullptr};
  }
  const auto found = algorithms_.find(req.algo);
  if (found == algorithms_.end()) return unknown_algorithm(req.algo);
  Algorithm& algo = found->second;
  try {
    // Fail invalid resources before they reach the cache; same uniform
    // message the scheduler itself would produce.
    validate_resources(Resources{req.p, req.memory_cap}, algo.caps,
                       req.algo);
  } catch (const std::exception& e) {
    return ServiceError{ErrorCode::kInvalidResources, e.what(),
                        std::current_exception()};
  } catch (...) {
    return ServiceError{ErrorCode::kInvalidResources,
                        "non-standard exception validating resources for " +
                            req.algo,
                        std::current_exception()};
  }

  try {
    bool hit = false;
    CachedResultPtr result;
    if (cache_.enabled()) {
      const ResultKey key = key_for(req, algo.caps);
      result = cache_.get(key);
      hit = result != nullptr;
      if (!hit) {
        result = compute(req, algo);
        cache_.put(key, result);
      }
    } else {
      // Cache disabled: the honest uncached path. Every request pays its
      // own compute and no cache counter moves, which is exactly what
      // bench_service's baseline must measure.
      result = compute(req, algo);
    }

    ScheduleResponse resp;
    resp.makespan = result->makespan;
    resp.peak_memory = result->peak_memory;
    resp.cache_hit = hit;
    if (req.want_schedule) {
      resp.schedule =
          std::shared_ptr<const Schedule>(result, &result->schedule);
    }
    req.stamps.stamp(Stage::kComputeEnd);
    resp.stamps = req.stamps;
    record_stage_metrics(req);
    return resp;
  } catch (const std::exception& e) {
    return ServiceError{ErrorCode::kSchedulerFailure, e.what(),
                        std::current_exception()};
  } catch (...) {
    // The Scheduler interface does not forbid non-std exceptions. They
    // must still become values here: escaping would skip the servicer's
    // release() (deadlocking the destructor's drain) and terminate the
    // pool worker.
    return ServiceError{ErrorCode::kSchedulerFailure,
                        "non-standard exception from " + req.algo,
                        std::current_exception()};
  }
}

CachedResultPtr SchedulingService::compute(const ScheduleRequest& req,
                                           Algorithm& algo) {
  const std::uint64_t started = obs::now_ns();
  const Tree& tree = *req.tree;
  // The interned tree's own analysis: the tree's misses share its
  // optimal postorder, built by the first that reads it.
  ScheduleRun run = algo.scheduler->run(
      tree, Resources{req.p, req.memory_cap}, *req.tree.analysis);
  auto result = std::make_shared<CachedResult>();
  if (config_.validate) {
    // The check replays the schedule once; its scores are the answer's.
    const ScheduleCheck v =
        check_schedule(tree, run.schedule, req.p, req.memory_cap);
    if (!v.ok) {
      throw std::logic_error("service: invalid schedule from " + req.algo +
                             ": " + v.error);
    }
    result->makespan = v.makespan;
    result->peak_memory = v.peak_memory;
  } else {
    // O(n) for a sequential answer whose starts strictly rise; a replay
    // otherwise. Either way the scores simulate() gives.
    const SimulationResult sim =
        score_schedule(tree, run.schedule, run.traversal);
    result->makespan = sim.makespan;
    result->peak_memory = sim.peak_memory;
  }
  result->schedule = std::move(run.schedule);

  // Per-algorithm distributions: actual scheduler compute only — cache
  // hits never get here, so these histograms answer "what does algorithm
  // X cost" without a campaign rerun.
  const std::uint64_t took = obs::now_ns() - started;
  std::call_once(algo.histograms_once, [&] {
    const std::string label = "algo=\"" + req.algo + "\"";
    algo.compute_seconds = &registry_->histogram(
        "treesched_algo_compute_seconds", label,
        "Scheduler compute time by algorithm",
        obs::Histogram::latency_bounds_ns(), 1e-9);
    algo.peak_memory = &registry_->histogram(
        "treesched_algo_peak_memory_bytes", label,
        "Schedule peak memory by algorithm", obs::Histogram::bytes_bounds(),
        1.0);
  });
  algo.compute_seconds->record(took);
  algo.peak_memory->record(static_cast<std::uint64_t>(result->peak_memory));
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    tracer.record(tracer.intern_name("compute:" + req.algo), started, took,
                  req.tree.uid);
  }
  return result;
}

void SchedulingService::drain_one() {
  RequestQueue::PopResult popped = queue_->pop();
  for (RequestQueue::Entry& e : popped.expired) {
    std::ostringstream os;
    os << "deadline expired: " << to_string(e.submitted) << " request ("
       << e.request.algo << ", deadline " << e.request.deadline_ms
       << " ms) spent "
       << std::chrono::duration<double, std::milli>(
              RequestQueue::Clock::now() - e.admitted)
              .count()
       << " ms queued";
    detail::complete_ticket(
        e.ticket,
        ServiceError{ErrorCode::kDeadlineExpired, os.str(), nullptr});
  }
  if (popped.entry) {
    popped.entry->request.stamps.stamp(Stage::kDequeue);
    detail::complete_ticket(popped.entry->ticket,
                            evaluate(popped.entry->request));
  }
}

Ticket SchedulingService::submit(ScheduleRequest req) {
  auto state = std::make_shared<detail::TicketState>();

  if (ThreadPool::shared().on_worker_thread()) {
    // A nested submission (a batch item or campaign fanning out from a
    // pool worker) already holds a worker: routing it through the queue
    // could deadlock — its drain job may only ever be runnable on this
    // very thread — and any inline-draining scheme must then re-balance
    // pops against entries (an entry taken by someone else's job leaves
    // that job's entry short a servicer). Compute synchronously instead,
    // like a parallel_for caller participating in its own work: the
    // request never waits, so its class and deadline are trivially
    // honored, and it is invisible to queue_stats() (never queued, so
    // never cancellable either).
    detail::complete_ticket(state, evaluate(req));
    return Ticket(std::move(state), nullptr, 0);
  }

  req.stamps.stamp(Stage::kAdmit);
  // The servicer is registered in async_outstanding_ BEFORE the entry is
  // admitted: at no instant does the queue hold an entry whose answerer
  // the destructor cannot see.
  {
    const std::lock_guard<std::mutex> lock(async_mutex_);
    ++async_outstanding_;
  }
  auto release = [this] {
    // Notify under the mutex: the moment it unlocks, the destructor may
    // observe zero and free `this`, so the cv must not be touched after.
    const std::lock_guard<std::mutex> lock(async_mutex_);
    --async_outstanding_;
    async_cv_.notify_all();
  };
  const std::optional<std::uint64_t> seq = queue_->push(std::move(req), state);
  if (!seq) {
    release();
    // Rejected at admission; the ticket already carries kQueueFull.
    return Ticket(std::move(state), nullptr, 0);
  }
  ThreadPool::shared().submit([this, release] {
    drain_one();
    release();
  });
  return Ticket(std::move(state), queue_, *seq);
}

ScheduleResponse SchedulingService::schedule(const ScheduleRequest& req) {
  return unwrap(submit(req).wait());
}

std::vector<ScheduleResponse> SchedulingService::schedule_batch(
    const std::vector<ScheduleRequest>& reqs) {
  // N tickets + ordered collect, minus the deadlines: the v1 batch
  // contract.
  std::vector<Ticket> tickets;
  tickets.reserve(reqs.size());
  for (const ScheduleRequest& r : reqs) {
    ScheduleRequest req = r;
    req.deadline_ms = 0.0;
    tickets.push_back(submit(std::move(req)));
  }
  return collect_ordered(std::move(tickets));
}

std::vector<ScheduleResponse> SchedulingService::collect_ordered(
    std::vector<Ticket> tickets) {
  std::vector<ScheduleResponse> responses(tickets.size());
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    responses[i] = to_response(tickets[i].wait());
  }
  return responses;
}

}  // namespace treesched
