// The v2 submission surface: Result<T, E> contract tests, submit() +
// Ticket wait/wait_for/try_get semantics, the typed ServiceError
// taxonomy, cancellation (queued, running, completed, double, inline,
// racing a worker pickup), and the destructor-vs-abandoned/cancelled
// ticket interaction the API documents.

#include "service/ticket.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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
#include "util/result.hpp"
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

using testing::GateGuard;

/// Saturates every pool worker with interactive "TestGate" requests, with
/// queued entries to spare, so a subsequently submitted Bulk request stays
/// in the queue until the caller's GateGuard opens (a fixed count would
/// leave workers idle on many-core machines). Every entry has its own
/// cache key, so each one is a miss that reaches the scheduler.
std::vector<Ticket> saturate(SchedulingService& service,
                             const TreeHandle& heavy) {
  const std::size_t backlog = 2 * ThreadPool::shared().size() + 6;
  std::vector<Ticket> tickets;
  tickets.reserve(backlog);
  for (std::size_t i = 0; i < backlog; ++i) {
    ScheduleRequest req;
    req.tree = heavy;
    req.algo = "TestGate";
    req.p = 2 + static_cast<int>(i);
    req.priority = Priority::kInteractive;
    tickets.push_back(service.submit(std::move(req)));
  }
  return tickets;
}

// ---------------------------------------------------------------------------
// Result<T, E> contract.
// ---------------------------------------------------------------------------

using IntResult = Result<int, std::string>;

TEST(ResultContract, HoldsExactlyOneSide) {
  const IntResult ok = 7;
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(static_cast<bool>(ok));
  EXPECT_EQ(ok.value(), 7);

  const IntResult err = std::string("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_FALSE(static_cast<bool>(err));
  EXPECT_EQ(err.error(), "boom");
}

TEST(ResultContract, WrongAccessorThrowsLogicError) {
  const IntResult ok = 1;
  const IntResult err = std::string("boom");
  EXPECT_THROW((void)ok.error(), std::logic_error);
  EXPECT_THROW((void)err.value(), std::logic_error);
}

TEST(ResultContract, ValueOrNeverThrows) {
  const IntResult ok = 3;
  const IntResult err = std::string("boom");
  EXPECT_EQ(ok.value_or(-1), 3);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(ResultContract, MapTransformsValueAndForwardsError) {
  const IntResult ok = 10;
  const Result<double, std::string> doubled =
      ok.map([](int v) { return v * 1.5; });
  ASSERT_TRUE(doubled.ok());
  EXPECT_DOUBLE_EQ(doubled.value(), 15.0);

  const IntResult err = std::string("boom");
  const Result<double, std::string> still_err =
      err.map([](int v) { return v * 1.5; });
  ASSERT_FALSE(still_err.ok());
  EXPECT_EQ(still_err.error(), "boom");
}

TEST(ResultContract, AndThenChainsAndShortCircuits) {
  const auto half = [](int v) -> IntResult {
    if (v % 2 != 0) return std::string("odd");
    return v / 2;
  };
  EXPECT_EQ(IntResult(8).and_then(half).value(), 4);
  EXPECT_EQ(IntResult(7).and_then(half).error(), "odd");
  EXPECT_EQ(IntResult(std::string("early")).and_then(half).error(), "early")
      << "an existing error short-circuits the continuation";
}

TEST(ResultContract, MoveOnlyValuesMoveOut) {
  Result<std::unique_ptr<int>, std::string> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  const std::unique_ptr<int> taken = std::move(r).value();
  EXPECT_EQ(*taken, 5);
}

// ---------------------------------------------------------------------------
// submit() + Ticket basics.
// ---------------------------------------------------------------------------

TEST(Ticket, SubmitWaitMatchesDirectRegistryCall) {
  SchedulingService service;
  const Tree tree = weighted_tree(11);
  const TreeHandle handle = service.intern(tree);
  const SchedulerPtr direct =
      SchedulerRegistry::instance().create("ParInnerFirst");
  const Schedule expect_sched = direct->schedule(tree, Resources{4, 0});
  const SimulationResult expect = simulate(tree, expect_sched);

  ScheduleRequest req;
  req.tree = handle;
  req.algo = "ParInnerFirst";
  req.p = 4;
  req.want_schedule = true;
  Ticket ticket = service.submit(req);
  const ServiceResult result = ticket.wait();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().makespan, expect.makespan);
  EXPECT_EQ(result.value().peak_memory, expect.peak_memory);
  ASSERT_NE(result.value().schedule, nullptr);
  EXPECT_EQ(result.value().schedule->start, expect_sched.start);

  // wait() is repeatable, and try_get()/wait_for() see the settled result.
  EXPECT_TRUE(ticket.wait().ok());
  const auto polled = ticket.try_get();
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->value().makespan, expect.makespan);
  const auto bounded = ticket.wait_for(1000ms);
  ASSERT_TRUE(bounded.has_value());
  EXPECT_TRUE(bounded->ok());
}

TEST(Ticket, EmptyTicketResolvesToBadRequestAndCannotCancel) {
  Ticket empty;
  EXPECT_FALSE(empty.valid());
  const ServiceResult result = empty.wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kBadRequest);
  EXPECT_FALSE(empty.cancel());
}

TEST(Ticket, TryGetAndWaitForReportPendingWhileQueued) {
  SchedulingService service;
  GateGuard gate;
  const TreeHandle heavy = service.intern(weighted_tree(3, 2000));
  std::vector<Ticket> backlog = saturate(service, heavy);

  ScheduleRequest req;
  req.tree = service.intern(weighted_tree(4, 30));
  req.algo = "Liu";
  req.p = 1;
  req.priority = Priority::kBulk;  // pinned behind the whole backlog
  Ticket ticket = service.submit(std::move(req));
  EXPECT_FALSE(ticket.try_get().has_value()) << "still queued";
  EXPECT_FALSE(ticket.wait_for(0ms).has_value());

  gate.open();
  for (Ticket& t : backlog) EXPECT_TRUE(t.wait().ok());
  EXPECT_TRUE(ticket.wait().ok());
}

// ---------------------------------------------------------------------------
// The typed error taxonomy through submit().
// ---------------------------------------------------------------------------

TEST(TicketErrors, UnknownAlgorithmIsTyped) {
  SchedulingService service;
  ScheduleRequest req;
  req.tree = service.intern(weighted_tree(1));
  req.algo = "NoSuchAlgo";
  req.p = 2;
  const ServiceResult result = service.submit(req).wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnknownAlgorithm);
  EXPECT_NE(result.error().message.find("NoSuchAlgo"), std::string::npos);
}

TEST(TicketErrors, InvalidResourcesAndMissingTreeAreTyped) {
  SchedulingService service;
  ScheduleRequest req;
  req.algo = "ParSubtrees";
  req.p = 2;
  const ServiceResult no_tree = service.submit(req).wait();
  ASSERT_FALSE(no_tree.ok());
  EXPECT_EQ(no_tree.error().code, ErrorCode::kInvalidResources);

  req.tree = service.intern(weighted_tree(1));
  req.p = 0;
  const ServiceResult bad_p = service.submit(req).wait();
  ASSERT_FALSE(bad_p.ok());
  EXPECT_EQ(bad_p.error().code, ErrorCode::kInvalidResources);
  EXPECT_EQ(bad_p.error().message,
            "ParSubtrees: invalid resources: p must be >= 1 (got 0)")
      << "the uniform validate_resources message survives the conversion";
}

TEST(TicketErrors, SchedulerFailureCarriesTheOriginalCause) {
  SchedulingService service;
  // 60 nodes > the BruteForceSeq oracle's 20-node bound: the scheduler
  // itself throws std::invalid_argument mid-compute.
  ScheduleRequest req;
  req.tree = service.intern(weighted_tree(2));
  req.algo = "BruteForceSeq";
  req.p = 1;
  const ServiceResult result = service.submit(req).wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kSchedulerFailure);
  ASSERT_NE(result.error().cause, nullptr);
  // The legacy bridge rethrows the scheduler's own exception type.
  EXPECT_THROW(std::rethrow_exception(to_exception(result.error())),
               std::invalid_argument);
  EXPECT_THROW((void)service.schedule(req), std::invalid_argument);
}

TEST(TicketErrors, DeadlineExpiryIsTypedAndCostsNoCompute) {
  SchedulingService service;
  GateGuard gate;
  const TreeHandle heavy = service.intern(weighted_tree(3, 2000));
  std::vector<Ticket> backlog = saturate(service, heavy);

  ScheduleRequest req;
  req.tree = service.intern(weighted_tree(4, 30));
  req.algo = "Liu";
  req.p = 1;
  req.priority = Priority::kBulk;
  req.deadline_ms = 0.01;
  Ticket doomed = service.submit(std::move(req));
  std::this_thread::sleep_for(1ms);  // well past the deadline, still queued
  gate.open();
  for (Ticket& t : backlog) EXPECT_TRUE(t.wait().ok());
  const ServiceResult result = doomed.wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kDeadlineExpired);
  EXPECT_EQ(service.queue_stats().of(Priority::kBulk).expired, 1u);
}

TEST(TicketErrors, StoreBudgetRejectionIsTypedThroughTryIntern) {
  ServiceConfig config;
  config.store.max_bytes = tree_bytes(weighted_tree(1)) + 1;
  SchedulingService service(config);
  ASSERT_TRUE(service.try_intern(weighted_tree(1)).ok());
  const Result<TreeHandle, ServiceError> full =
      service.try_intern(weighted_tree(2, 500));
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.error().code, ErrorCode::kStoreFull);
  EXPECT_EQ(service.store_stats().rejected, 1u);
  EXPECT_THROW((void)service.intern(weighted_tree(3, 500)), StoreFull)
      << "the legacy surface maps kStoreFull to the typed exception";
  // The already-interned tree keeps resolving.
  EXPECT_TRUE(service.try_intern(weighted_tree(1)).ok());
}

// ---------------------------------------------------------------------------
// Cancellation.
// ---------------------------------------------------------------------------

TEST(TicketCancel, QueuedRequestCancelsWithTypedErrorAndCounts) {
  SchedulingService service;
  GateGuard gate;
  const TreeHandle heavy = service.intern(weighted_tree(3, 2000));
  std::vector<Ticket> backlog = saturate(service, heavy);

  ScheduleRequest req;
  req.tree = service.intern(weighted_tree(4, 30));
  req.algo = "Liu";
  req.p = 1;
  req.priority = Priority::kBulk;  // class-preempted behind the backlog
  Ticket ticket = service.submit(std::move(req));

  EXPECT_TRUE(ticket.cancel()) << "still queued: cancel wins";
  const ServiceResult result = ticket.wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kCancelled);
  EXPECT_FALSE(ticket.cancel()) << "double-cancel reports false";

  gate.open();
  for (Ticket& t : backlog) EXPECT_TRUE(t.wait().ok());
  const QueueStats qs = service.queue_stats();
  const ClassQueueStats& bulk = qs.of(Priority::kBulk);
  EXPECT_EQ(bulk.cancelled, 1u) << "observable in QueueStats";
  EXPECT_EQ(bulk.completed, 0u) << "never handed to a worker";
  EXPECT_EQ(bulk.admitted,
            bulk.completed + bulk.expired + bulk.rejected + bulk.cancelled);
  // The cancelled request never reached a scheduler: only the backlog
  // missed (distinct keys each).
  EXPECT_EQ(service.cache_stats().misses, backlog.size());
}

TEST(TicketCancel, CompletedAndInlineRequestsReportFalse) {
  SchedulingService service;
  const TreeHandle handle = service.intern(weighted_tree(5));
  ScheduleRequest req;
  req.tree = handle;
  req.algo = "ParSubtrees";
  req.p = 4;

  Ticket done = service.submit(req);
  ASSERT_TRUE(done.wait().ok());
  EXPECT_FALSE(done.cancel()) << "cancel-after-complete is a no-op";
  EXPECT_TRUE(done.wait().ok()) << "the settled result stands";

  // Submissions from pool workers compute inline and cannot be cancelled
  // (parallel_for's caller participates in its own work, so some
  // iterations may legitimately run on the calling thread and queue —
  // those must be cancel-consistent instead).
  std::atomic<int> consistent{0};
  parallel_for(4, [&](std::size_t i) {
    ScheduleRequest r = req;
    r.p = 1 + static_cast<int>(i);
    const bool on_worker = ThreadPool::shared().on_worker_thread();
    Ticket t = service.submit(std::move(r));
    const bool cancelled = t.cancel();
    const ServiceResult res = t.wait();
    bool ok_case = false;
    if (on_worker) {
      ok_case = !cancelled && res.ok();  // inline: settled before cancel
    } else if (cancelled) {
      ok_case = !res.ok() && res.error().code == ErrorCode::kCancelled;
    } else {
      ok_case = res.ok();
    }
    if (ok_case) consistent.fetch_add(1);
  });
  EXPECT_EQ(consistent.load(), 4);
}

TEST(TicketCancel, CancelRacingWorkerPickupSettlesEveryTicketExactlyOnce) {
  // Producers hammer submit() while cancelling half their tickets right
  // away. Whatever the interleaving: a successful cancel() implies the
  // kCancelled result, a failed one implies a worker-computed result,
  // and the queue counters balance with the cancelled column.
  constexpr int kProducers = 6;
  constexpr int kPerProducer = 40;
  SchedulingService service;
  std::vector<TreeHandle> handles;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    handles.push_back(service.intern(weighted_tree(seed, 80)));
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> cancelled_true{0};
  std::atomic<int> computed{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        ScheduleRequest req;
        req.tree = handles[static_cast<std::size_t>(t + i) % handles.size()];
        req.algo = "ParDeepestFirst";
        req.p = 2 + i % 6;
        req.priority = static_cast<Priority>(i % kPriorityClasses);
        Ticket ticket = service.submit(std::move(req));
        const bool want_cancel = i % 2 == 0;
        const bool cancelled = want_cancel && ticket.cancel();
        const ServiceResult result = ticket.wait();
        if (cancelled) {
          cancelled_true.fetch_add(1);
          if (result.ok() ||
              result.error().code != ErrorCode::kCancelled) {
            mismatches.fetch_add(1);
          }
        } else if (result.ok()) {
          computed.fetch_add(1);
        } else {
          mismatches.fetch_add(1);  // no deadlines, no bound: must compute
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kProducers) * kPerProducer;
  EXPECT_EQ(static_cast<std::uint64_t>(cancelled_true.load() +
                                       computed.load()),
            kTotal)
      << "every ticket settled exactly once";

  const QueueStats qs = service.queue_stats();
  std::uint64_t admitted = 0, completed = 0, cancelled = 0;
  for (const ClassQueueStats& c : qs.by_class) {
    EXPECT_EQ(c.admitted, c.completed + c.expired + c.rejected + c.cancelled)
        << "per-class balance with cancellation";
    EXPECT_EQ(c.pending, 0u);
    EXPECT_EQ(c.expired, 0u);
    EXPECT_EQ(c.rejected, 0u);
    admitted += c.admitted;
    completed += c.completed;
    cancelled += c.cancelled;
  }
  EXPECT_EQ(admitted, kTotal);
  EXPECT_EQ(cancelled, static_cast<std::uint64_t>(cancelled_true.load()));
  EXPECT_EQ(completed, static_cast<std::uint64_t>(computed.load()));
}

// ---------------------------------------------------------------------------
// Cache accounting: every miss computes.
// ---------------------------------------------------------------------------

TEST(SchedulingService, TwinMissesAgreeWithTheCounters) {
  // Two identical requests that miss at once each compute, so each
  // answer's cache_hit is what the cache counted. The gate holds the
  // first in its scheduler until the second has missed too, which takes
  // two pool workers; on one, the second stays queued, then hits the
  // first's entry, and the counters agree just the same.
  SchedulingService service;
  GateGuard gate;
  ScheduleRequest req;
  req.tree = service.intern(weighted_tree(3));
  req.algo = "TestGate";
  req.p = 2;
  std::vector<Ticket> twins;
  twins.push_back(service.submit(req));
  twins.push_back(service.submit(req));
  const std::uint64_t at_once =
      std::min<std::size_t>(2, ThreadPool::shared().size());
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (service.cache_stats().misses < at_once &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(service.cache_stats().misses, at_once);
  gate.open();
  std::uint64_t hit_answers = 0;
  for (Ticket& twin : twins) {
    const ServiceResult result = twin.wait();
    ASSERT_TRUE(result.ok()) << result.error().message;
    hit_answers += result.value().cache_hit ? 1 : 0;
  }
  const CacheStats stats = service.cache_stats();
  EXPECT_EQ(hit_answers, stats.hits);
  EXPECT_EQ(twins.size() - hit_answers, stats.misses);
}

// ---------------------------------------------------------------------------
// Destructor vs. abandoned / cancelled / surviving tickets.
// ---------------------------------------------------------------------------

TEST(TicketLifetime, AbandonedAndCancelledTicketsNeverDeadlockTheDrain) {
  // Tickets dropped without wait() — some cancelled, some not, some
  // identical requests computing at once — must not strand the
  // destructor's async_outstanding_ drain or leak (the ASan/TSan CI jobs
  // run this test for the leak half of the claim).
  const Tree tree = weighted_tree(7, 200);
  for (int round = 0; round < 3; ++round) {
    SchedulingService service;
    const TreeHandle handle = service.intern(tree);
    for (int i = 0; i < 24; ++i) {
      ScheduleRequest req;
      req.tree = handle;
      req.algo = "ParInnerFirst";
      req.p = 2 + i % 3;  // few distinct keys: identical misses at once
      req.priority = Priority::kBulk;
      Ticket ticket = service.submit(std::move(req));
      if (i % 3 == 0) (void)ticket.cancel();
      // ticket dropped here, unwaited
    }
    // ~SchedulingService must return on its own.
  }
  SUCCEED() << "all drains completed";
}

TEST(TicketLifetime, TicketOutlivesServiceSafely) {
  Ticket survivor;
  {
    SchedulingService service;
    ScheduleRequest req;
    req.tree = service.intern(weighted_tree(8));
    req.algo = "ParSubtrees";
    req.p = 2;
    survivor = service.submit(std::move(req));
    ASSERT_TRUE(survivor.wait().ok());
  }
  // The service is gone; the settled ticket still answers, and cancel()
  // (through the shared, drained queue) is a safe no-op.
  EXPECT_TRUE(survivor.wait().ok());
  EXPECT_FALSE(survivor.cancel());
}

// ---------------------------------------------------------------------------
// Legacy wrappers are thin shims over submit().
// ---------------------------------------------------------------------------

TEST(LegacyWrappers, ScheduleThrowsWhatTheTicketCarries) {
  SchedulingService service;
  ScheduleRequest req;
  req.tree = service.intern(weighted_tree(9));
  req.algo = "NoSuchAlgo";
  req.p = 2;
  EXPECT_THROW((void)service.schedule(req), std::invalid_argument);

  req.algo = "ParInnerFirst";
  const ScheduleResponse via_wrapper = service.schedule(req);
  const ServiceResult via_ticket = service.submit(req).wait();
  ASSERT_TRUE(via_ticket.ok());
  EXPECT_EQ(via_wrapper.makespan, via_ticket.value().makespan);
  EXPECT_EQ(via_wrapper.peak_memory, via_ticket.value().peak_memory);
}

TEST(LegacyWrappers, ScheduleBatchIgnoresDeadlinesLikeV1) {
  // schedule_batch keeps the v1 contract: deadlines are stripped before
  // the requests are queued. submit() is the deadline-honoring path.
  SchedulingService service;
  const TreeHandle handle = service.intern(weighted_tree(13));
  std::vector<ScheduleRequest> reqs(8);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].tree = handle;
    reqs[i].algo = "ParInnerFirst";
    reqs[i].p = 2 + static_cast<int>(i % 4);
    reqs[i].deadline_ms = 0.0001;  // would expire if queued with it
  }
  const std::vector<ScheduleResponse> responses = service.schedule_batch(reqs);
  for (const ScheduleResponse& resp : responses) {
    EXPECT_TRUE(resp.ok()) << "no schedule_batch item may expire";
  }
}

TEST(LegacyWrappers, BatchResponsesCarryTheTypedError) {
  SchedulingService service;
  const TreeHandle handle = service.intern(weighted_tree(10));
  std::vector<ScheduleRequest> reqs(2);
  reqs[0].tree = handle;
  reqs[0].algo = "ParSubtrees";
  reqs[0].p = 4;
  reqs[1].tree = handle;
  reqs[1].algo = "ParSubtrees";
  reqs[1].p = 0;  // invalid
  const std::vector<ScheduleResponse> responses =
      service.schedule_batch(reqs);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].ok());
  ASSERT_FALSE(responses[1].ok());
  EXPECT_EQ(responses[1].error->code, ErrorCode::kInvalidResources);
}

// ---------------------------------------------------------------------------
// Ticket::on_complete — the completion hook the networked front-end
// rides (the I/O thread must be woken on settlement, never poll).
// ---------------------------------------------------------------------------

/// Spin-waits for `flag` with a generous bound: the hook fires on the
/// settling thread, which may run a beat after wait() returns.
bool eventually(const std::atomic<int>& counter, int expected) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (counter.load() != expected) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(TicketOnComplete, FiresExactlyOnceWithTheSettledResult) {
  SchedulingService service;
  ScheduleRequest req;
  req.tree = service.intern(weighted_tree(1));
  req.algo = "Liu";
  Ticket ticket = service.submit(req);
  std::atomic<int> fired{0};
  std::atomic<bool> was_ok{false};
  ticket.on_complete([&](const ServiceResult& result) {
    was_ok.store(result.ok());
    fired.fetch_add(1);
  });
  const ServiceResult direct = ticket.wait();
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(eventually(fired, 1));
  EXPECT_TRUE(was_ok.load());
}

TEST(TicketOnComplete, SettleBeforeSubscribeInvokesImmediately) {
  SchedulingService service;
  ScheduleRequest req;
  req.tree = service.intern(weighted_tree(2));
  req.algo = "Liu";
  Ticket ticket = service.submit(req);
  const ServiceResult settled = ticket.wait();  // settled before subscribing
  ASSERT_TRUE(settled.ok());
  int fired = 0;  // plain int: the callback must run synchronously, here
  double makespan = 0.0;
  ticket.on_complete([&](const ServiceResult& result) {
    ++fired;
    makespan = result.value().makespan;
  });
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(makespan, settled.value().makespan);
}

TEST(TicketOnComplete, SecondSubscriptionThrows) {
  SchedulingService service;
  ScheduleRequest req;
  req.tree = service.intern(weighted_tree(3));
  req.algo = "Liu";
  Ticket ticket = service.submit(req);
  ticket.on_complete([](const ServiceResult&) {});
  EXPECT_THROW(ticket.on_complete([](const ServiceResult&) {}),
               std::logic_error);
  (void)ticket.wait();
}

TEST(TicketOnComplete, EmptyTicketReportsBadRequestImmediately) {
  Ticket empty;
  int fired = 0;
  empty.on_complete([&](const ServiceResult& result) {
    ++fired;
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, ErrorCode::kBadRequest);
  });
  EXPECT_EQ(fired, 1);
}

TEST(TicketOnComplete, CancellationFiresTheHookWithKCancelled) {
  std::atomic<int> fired{0};
  std::atomic<bool> saw_cancelled{false};
  {
    SchedulingService service;
    GateGuard gate;
    const TreeHandle heavy =
        service.intern(weighted_tree(4, /*n=*/4000));
    std::vector<Ticket> busy = saturate(service, heavy);
    ScheduleRequest req;
    req.tree = heavy;
    req.algo = "Liu";
    req.priority = Priority::kBulk;  // behind the interactive backlog
    Ticket doomed = service.submit(req);
    doomed.on_complete([&](const ServiceResult& result) {
      saw_cancelled.store(!result.ok() &&
                          result.error().code == ErrorCode::kCancelled);
      fired.fetch_add(1);
    });
    ASSERT_TRUE(doomed.cancel());
    gate.open();
    for (Ticket& t : busy) (void)t.wait();
  }
  EXPECT_TRUE(eventually(fired, 1));
  EXPECT_TRUE(saw_cancelled.load());
}

TEST(TicketOnComplete, SubscribeRacingSettlementNeverLosesACompletion) {
  // The race the satellite names: subscription from one thread while a
  // pool worker settles. Whatever interleaving happens, every hook must
  // fire exactly once.
  SchedulingService service;
  const TreeHandle tree = service.intern(weighted_tree(5));
  constexpr int kRounds = 200;
  std::atomic<int> fired{0};
  std::vector<Ticket> tickets;
  tickets.reserve(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    ScheduleRequest req;
    req.tree = tree;
    req.algo = "Liu";
    tickets.push_back(service.submit(req));
    // Attach right away: cache-hot requests often settle first.
    tickets.back().on_complete(
        [&](const ServiceResult&) { fired.fetch_add(1); });
  }
  for (Ticket& t : tickets) (void)t.wait();
  EXPECT_TRUE(eventually(fired, kRounds));
}

}  // namespace
}  // namespace treesched
