// The deadline-aware admission queue and the service's submission paths:
// class preemption, EDF within a class, aging against starvation, typed
// expiry/rejection/cancellation errors, counter balance under producer
// contention, and bit-identical results vs. direct registry calls. The
// legacy schedule_async/schedule_prioritized wrappers are exercised here;
// the Ticket surface itself is pinned by tests/test_tickets.cpp.

#include "service/request_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/simulator.hpp"
#include "gate_scheduler.hpp"
#include "sched/registry.hpp"
#include "service/service.hpp"
#include "trees/generators.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace treesched {
namespace {

using namespace std::chrono_literals;

Tree weighted_tree(std::uint64_t seed, NodeId n = 60) {
  Rng rng(seed);
  RandomTreeParams params;
  params.n = n;
  params.max_output = 40;
  params.max_exec = 15;
  params.min_work = 1.0;
  params.max_work = 30.0;
  params.depth_bias = 1.5;
  return random_tree(params, rng);
}

/// A queue entry tagged through the algo field (the queue never
/// interprets it).
std::pair<ScheduleRequest, std::shared_ptr<detail::TicketState>> tagged(
    const std::string& tag, Priority cls, double deadline_ms = 0.0) {
  ScheduleRequest req;
  req.algo = tag;
  req.priority = cls;
  req.deadline_ms = deadline_ms;
  return {std::move(req), std::make_shared<detail::TicketState>()};
}

/// The settled error code of a ticket state, if any.
std::optional<ErrorCode> settled_code(
    const std::shared_ptr<detail::TicketState>& state) {
  const std::lock_guard<std::mutex> lock(state->mutex);
  if (!state->result.has_value() || state->result->ok()) return std::nullopt;
  return state->result->error().code;
}

std::string pop_tag(RequestQueue& q) {
  RequestQueue::PopResult r = q.pop();
  return r.entry ? r.entry->request.algo : std::string("<empty>");
}

// ---------------------------------------------------------------------------
// RequestQueue ordering semantics.
// ---------------------------------------------------------------------------

TEST(RequestQueue, HigherClassesPreemptLowerAtDequeue) {
  RequestQueue q;
  for (const auto& [tag, cls] :
       std::vector<std::pair<std::string, Priority>>{
           {"bulk", Priority::kBulk},
           {"batch", Priority::kBatch},
           {"interactive", Priority::kInteractive}}) {
    auto [req, state] = tagged(tag, cls);
    EXPECT_TRUE(q.push(std::move(req), std::move(state)).has_value());
  }
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_EQ(pop_tag(q), "interactive");
  EXPECT_EQ(pop_tag(q), "batch");
  EXPECT_EQ(pop_tag(q), "bulk");
  EXPECT_EQ(pop_tag(q), "<empty>");
  EXPECT_EQ(q.pending(), 0u);
}

TEST(RequestQueue, EarliestDeadlineFirstWithinAClass) {
  RequestQueue q;
  // Same class: deadline-tagged in deadline order, then the deadline-less
  // in admission order.
  for (const auto& [tag, deadline] :
       std::vector<std::pair<std::string, double>>{{"late", 60000.0},
                                                   {"none-1", 0.0},
                                                   {"early", 10000.0},
                                                   {"none-2", 0.0}}) {
    auto [req, state] = tagged(tag, Priority::kBatch, deadline);
    ASSERT_TRUE(q.push(std::move(req), std::move(state)).has_value());
  }
  EXPECT_EQ(pop_tag(q), "early");
  EXPECT_EQ(pop_tag(q), "late");
  EXPECT_EQ(pop_tag(q), "none-1");
  EXPECT_EQ(pop_tag(q), "none-2");
}

TEST(RequestQueue, ExpiredEntriesAreReturnedSeparatelyNotAsWork) {
  RequestQueue q;
  {
    auto [req, state] = tagged("doomed", Priority::kInteractive, 0.01);
    ASSERT_TRUE(q.push(std::move(req), std::move(state)).has_value());
  }
  {
    auto [req, state] = tagged("live", Priority::kInteractive);
    ASSERT_TRUE(q.push(std::move(req), std::move(state)).has_value());
  }
  std::this_thread::sleep_for(5ms);  // let the 0.01 ms deadline lapse
  RequestQueue::PopResult r = q.pop();
  ASSERT_TRUE(r.entry.has_value());
  EXPECT_EQ(r.entry->request.algo, "live");
  ASSERT_EQ(r.expired.size(), 1u);
  EXPECT_EQ(r.expired[0].request.algo, "doomed");

  const QueueStats stats = q.stats();
  const ClassQueueStats& c = stats.of(Priority::kInteractive);
  EXPECT_EQ(c.admitted, 2u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.rejected, 0u);
  EXPECT_EQ(stats.pending(), 0u);
}

TEST(RequestQueue, AgingPromotesStarvedBulkAheadOfFreshInteractive) {
  RequestQueueConfig config;
  config.age_after = 10ms;
  RequestQueue q(config);
  {
    auto [req, state] = tagged("starved-bulk", Priority::kBulk);
    ASSERT_TRUE(q.push(std::move(req), std::move(state)).has_value());
  }
  // One interval per level: after the first pop-triggered sweep the bulk
  // entry sits in kBatch, after the second in kInteractive — where FIFO
  // puts it ahead of any younger interactive arrival.
  std::this_thread::sleep_for(15ms);
  {
    auto [req, state] = tagged("fresh-1", Priority::kInteractive);
    ASSERT_TRUE(q.push(std::move(req), std::move(state)).has_value());
  }
  EXPECT_EQ(pop_tag(q), "fresh-1") << "one interval climbs one level only";
  std::this_thread::sleep_for(15ms);
  {
    auto [req, state] = tagged("fresh-2", Priority::kInteractive);
    ASSERT_TRUE(q.push(std::move(req), std::move(state)).has_value());
  }
  EXPECT_EQ(pop_tag(q), "starved-bulk")
      << "twice-aged bulk reached the top class with seniority";
  EXPECT_EQ(pop_tag(q), "fresh-2");
  EXPECT_EQ(q.stats().of(Priority::kBulk).aged, 2u)
      << "two promotions, both attributed to the submitted class";
}

TEST(RequestQueue, MaxPendingRejectsWithTypedErrorAndCountsRejected) {
  RequestQueueConfig config;
  config.max_pending = 2;
  RequestQueue q(config);
  std::shared_ptr<detail::TicketState> rejected_state;
  for (int i = 0; i < 3; ++i) {
    auto [req, state] = tagged("r" + std::to_string(i), Priority::kBatch);
    if (i == 2) rejected_state = state;
    const auto seq = q.push(std::move(req), std::move(state));
    EXPECT_EQ(seq.has_value(), i < 2);
  }
  // The queue settled the rejected ticket itself, with the typed code.
  ASSERT_TRUE(settled_code(rejected_state).has_value());
  EXPECT_EQ(*settled_code(rejected_state), ErrorCode::kQueueFull);
  const QueueStats stats = q.stats();
  const ClassQueueStats& c = stats.of(Priority::kBatch);
  EXPECT_EQ(c.admitted, 3u) << "admitted counts every push";
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.pending, 2u);
}

TEST(RequestQueue, CancelRemovesQueuedEntryAndSettlesWithCancelled) {
  RequestQueue q;
  auto [req_a, state_a] = tagged("a", Priority::kBatch);
  auto [req_b, state_b] = tagged("b", Priority::kBatch);
  const auto seq_a = q.push(std::move(req_a), state_a);
  const auto seq_b = q.push(std::move(req_b), state_b);
  ASSERT_TRUE(seq_a && seq_b);

  EXPECT_TRUE(q.cancel(*seq_a));
  ASSERT_TRUE(settled_code(state_a).has_value());
  EXPECT_EQ(*settled_code(state_a), ErrorCode::kCancelled);
  EXPECT_FALSE(q.cancel(*seq_a)) << "double-cancel is a no-op";
  EXPECT_EQ(q.pending(), 1u);

  // The cancelled entry is never handed out as work.
  EXPECT_EQ(pop_tag(q), "b");
  EXPECT_FALSE(q.cancel(*seq_b)) << "cancel after pop is a no-op";
  EXPECT_FALSE(settled_code(state_b).has_value());

  const QueueStats stats = q.stats();
  const ClassQueueStats& c = stats.of(Priority::kBatch);
  EXPECT_EQ(c.admitted, 2u);
  EXPECT_EQ(c.cancelled, 1u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.admitted, c.completed + c.expired + c.rejected + c.cancelled)
      << "counter balance includes cancellations";
}

TEST(RequestQueue, CancelFindsEntriesAgedIntoAnotherClass) {
  RequestQueueConfig config;
  config.age_after = 5ms;
  RequestQueue q(config);
  auto [req, state] = tagged("bulk", Priority::kBulk);
  const auto seq = q.push(std::move(req), state);
  ASSERT_TRUE(seq.has_value());
  std::this_thread::sleep_for(8ms);
  // Age via a pop that takes a different (fresh interactive) entry; the
  // sweep promotes the bulk entry out of its admission bucket first.
  auto [other, other_state] = tagged("fresh", Priority::kInteractive);
  ASSERT_TRUE(q.push(std::move(other), std::move(other_state)).has_value());
  EXPECT_EQ(pop_tag(q), "fresh");  // ages bulk -> batch as a side effect
  EXPECT_EQ(q.stats().of(Priority::kBulk).aged, 1u);
  EXPECT_TRUE(q.cancel(*seq)) << "the cancel index followed the promotion";
  ASSERT_TRUE(settled_code(state).has_value());
  EXPECT_EQ(*settled_code(state), ErrorCode::kCancelled);
  EXPECT_EQ(q.stats().of(Priority::kBulk).cancelled, 1u)
      << "attributed to the submitted class";
}

// ---------------------------------------------------------------------------
// Service-level queued submission.
// ---------------------------------------------------------------------------

TEST(ScheduleAsync, MatchesDirectRegistryCallsBitIdentically) {
  SchedulingService service;
  const Tree tree = weighted_tree(11);
  const TreeHandle handle = service.intern(tree);
  const Priority classes[] = {Priority::kInteractive, Priority::kBatch,
                              Priority::kBulk};
  int i = 0;
  for (const std::string algo :
       {"ParSubtrees", "ParInnerFirst", "ParDeepestFirst", "Liu"}) {
    for (int p : {2, 8}) {
      const SchedulerPtr direct = SchedulerRegistry::instance().create(algo);
      const Schedule expect_sched = direct->schedule(tree, Resources{p, 0});
      const SimulationResult expect_sim = simulate(tree, expect_sched);

      ScheduleRequest req;
      req.tree = handle;
      req.algo = algo;
      req.p = p;
      req.want_schedule = true;
      req.priority = classes[i++ % 3];
      const ScheduleResponse resp = service.schedule_async(req).get();
      EXPECT_EQ(resp.makespan, expect_sim.makespan) << algo << " p=" << p;
      EXPECT_EQ(resp.peak_memory, expect_sim.peak_memory) << algo;
      ASSERT_NE(resp.schedule, nullptr);
      EXPECT_EQ(resp.schedule->start, expect_sched.start) << algo;
      EXPECT_EQ(resp.schedule->proc, expect_sched.proc) << algo;
    }
  }
}

TEST(ScheduleAsync, DeliversSchedulerErrorsThroughTheFuture) {
  SchedulingService service;
  ScheduleRequest req;
  req.tree = service.intern(weighted_tree(2));
  req.algo = "NoSuchAlgo";
  req.p = 2;
  EXPECT_THROW((void)service.schedule_async(req).get(),
               std::invalid_argument);
}

TEST(ScheduleAsync, ExpiredRequestsNeverReachTheSchedulers) {
  // Every request here has a distinct cache key, so cache misses ==
  // requests that actually reached schedule(): build an Interactive
  // backlog, then submit Bulk requests with sub-millisecond deadlines —
  // class preemption keeps them queued behind the backlog until their
  // deadlines lapse, and the miss counter proves no scheduler ever ran
  // for them (the queue's per-class completed counter agrees).
  SchedulingService service;
  testing::GateGuard gate;
  const TreeHandle heavy = service.intern(weighted_tree(3, 2000));
  const TreeHandle light = service.intern(weighted_tree(4, 30));

  // Enough backlog to pin every pool worker at the closed gate with
  // queued work to spare — a fixed count would leave workers idle on
  // many-core machines, and an idle worker would answer a doomed request
  // before its deadline lapsed.
  const std::size_t kBacklog = 2 * ThreadPool::shared().size() + 6;
  std::vector<std::future<ScheduleResponse>> backlog;
  for (std::size_t i = 0; i < kBacklog; ++i) {
    ScheduleRequest req;
    req.tree = heavy;
    req.algo = "TestGate";
    req.p = 2 + static_cast<int>(i);
    req.priority = Priority::kInteractive;
    backlog.push_back(service.schedule_async(req));
  }
  std::vector<std::future<ScheduleResponse>> doomed;
  for (int i = 0; i < 6; ++i) {
    ScheduleRequest req;
    req.tree = light;
    req.algo = "Liu";
    req.p = 1;
    req.priority = Priority::kBulk;
    req.deadline_ms = 0.01;
    doomed.push_back(service.schedule_async(req));
  }
  std::this_thread::sleep_for(1ms);  // the deadlines lapse while queued
  gate.open();
  for (auto& f : backlog) EXPECT_TRUE(f.get().ok());
  for (auto& f : doomed) {
    EXPECT_THROW((void)f.get(), DeadlineExpired)
        << "the legacy future delivers the typed expiry exception";
  }
  const CacheStats cs = service.cache_stats();
  EXPECT_EQ(cs.misses, kBacklog)
      << "only the backlog reached schedule(); expired work cost nothing";
  EXPECT_EQ(cs.hits, 0u);
  const QueueStats qs = service.queue_stats();
  EXPECT_EQ(qs.of(Priority::kBulk).expired, 6u);
  EXPECT_EQ(qs.of(Priority::kBulk).completed, 0u);
  EXPECT_EQ(qs.of(Priority::kInteractive).completed, kBacklog);
}

TEST(ScheduleAsync, PrioritizedBatchCapturesPerRequestFailuresInOrder) {
  SchedulingService service;
  const TreeHandle handle = service.intern(weighted_tree(5));
  std::vector<ScheduleRequest> reqs(3);
  reqs[0].tree = handle;
  reqs[0].algo = "ParSubtrees";
  reqs[0].p = 4;
  reqs[0].priority = Priority::kBulk;
  reqs[1].tree = handle;
  reqs[1].algo = "NoSuchAlgo";
  reqs[1].p = 4;
  reqs[2].tree = handle;
  reqs[2].algo = "Liu";
  reqs[2].p = 1;
  reqs[2].priority = Priority::kInteractive;
  const std::vector<ScheduleResponse> responses =
      service.schedule_prioritized(reqs);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_FALSE(responses[1].ok());
  EXPECT_EQ(responses[1].error->code, ErrorCode::kUnknownAlgorithm);
  EXPECT_TRUE(responses[2].ok());
  EXPECT_EQ(responses[0].makespan, service.schedule(reqs[0]).makespan);
}

TEST(ScheduleAsync, SubmittingFromPoolWorkersDoesNotDeadlock) {
  // A batch item (pool worker) fanning out through the queued path must
  // not deadlock even though its drain jobs would land on the very pool
  // it occupies — the worker services the queue inline instead.
  SchedulingService service;
  const TreeHandle handle = service.intern(weighted_tree(6));
  std::atomic<int> answered{0};
  parallel_for(8, [&](std::size_t i) {
    ScheduleRequest req;
    req.tree = handle;
    req.algo = (i % 2 == 0) ? "ParSubtrees" : "ParInnerFirst";
    req.p = 1 + static_cast<int>(i);
    req.priority = Priority::kInteractive;
    if (service.schedule_async(req).get().ok()) answered.fetch_add(1);
  });
  EXPECT_EQ(answered.load(), 8);
}

// ---------------------------------------------------------------------------
// The stress test: producer threads, mixed classes, tight deadlines.
// ---------------------------------------------------------------------------

TEST(ScheduleAsync, StressCountersBalanceAndNothingStarves) {
  constexpr int kProducers = 6;
  constexpr int kPerProducer = 40;

  ServiceConfig config;
  config.queue.age_after = 2ms;  // aggressive aging under the hammer
  SchedulingService service(config);
  const SchedulerPtr direct =
      SchedulerRegistry::instance().create("ParDeepestFirst");

  std::vector<TreeHandle> handles;
  std::vector<SimulationResult> expected;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Tree tree = weighted_tree(seed, 80);
    handles.push_back(service.intern(tree));
    expected.push_back(
        simulate(tree, direct->schedule(tree, Resources{4, 0})));
  }

  std::atomic<int> wrong{0};
  std::atomic<int> expired_seen{0};
  std::atomic<int> completed_seen{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      std::vector<std::future<ScheduleResponse>> futures;
      std::vector<std::size_t> tree_of;
      for (int i = 0; i < kPerProducer; ++i) {
        const std::size_t ti = static_cast<std::size_t>(t + i) % 3;
        ScheduleRequest req;
        req.tree = handles[ti];
        req.algo = "ParDeepestFirst";
        req.p = 4;
        req.priority = static_cast<Priority>(i % kPriorityClasses);
        // Every 5th request carries a deadline tight enough that some
        // expire under contention; everything else must complete.
        if (i % 5 == 0) req.deadline_ms = 0.05;
        futures.push_back(service.schedule_async(std::move(req)));
        tree_of.push_back(ti);
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        try {
          const ScheduleResponse resp = futures[i].get();
          completed_seen.fetch_add(1);
          if (resp.makespan != expected[tree_of[i]].makespan ||
              resp.peak_memory != expected[tree_of[i]].peak_memory) {
            wrong.fetch_add(1);
          }
        } catch (const DeadlineExpired&) {
          expired_seen.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kProducers) * kPerProducer;
  EXPECT_EQ(wrong.load(), 0) << "queued answers must be bit-identical";
  EXPECT_EQ(completed_seen.load() + expired_seen.load(),
            static_cast<int>(kTotal))
      << "every future resolves: nothing starves, nothing is dropped";

  const QueueStats qs = service.queue_stats();
  std::uint64_t admitted = 0, completed = 0, expired = 0, rejected = 0;
  for (const ClassQueueStats& c : qs.by_class) {
    EXPECT_EQ(c.admitted, c.completed + c.expired + c.rejected)
        << "per-class counter balance after drain";
    EXPECT_EQ(c.pending, 0u);
    admitted += c.admitted;
    completed += c.completed;
    expired += c.expired;
    rejected += c.rejected;
  }
  EXPECT_EQ(admitted, kTotal);
  EXPECT_EQ(rejected, 0u) << "the queue is unbounded in this test";
  EXPECT_EQ(completed, static_cast<std::uint64_t>(completed_seen.load()));
  EXPECT_EQ(expired, static_cast<std::uint64_t>(expired_seen.load()));
  // Deadline-less requests can never expire: only the tight-deadline
  // fifth of the workload is eligible.
  EXPECT_LE(expired, kTotal / 5);
}

}  // namespace
}  // namespace treesched
