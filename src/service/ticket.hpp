#pragma once
// Ticket: the move-only handle SchedulingService::submit() returns for
// every request — the one submission surface of the v2 API.
//
//   Ticket t = service.submit(req);
//   ServiceResult r = t.wait();          // block until answered
//   if (auto r = t.try_get()) ...        // poll without blocking
//   if (auto r = t.wait_for(50ms)) ...   // bounded wait
//   bool was_queued = t.cancel();        // cancel while still queued
//
// A ticket resolves exactly once, to a ServiceResult: the response, or a
// ServiceError with a machine-readable code. wait()/try_get() may be
// called repeatedly; each returns a copy of the same settled result
// (responses share the cached schedule, so copies are cheap).
//
// cancel() succeeds only while the request is still in the admission
// queue: the entry is removed, counted as `cancelled` in QueueStats, and
// the ticket resolves immediately with the kCancelled error. Cancelling
// a request a worker already picked up, one already answered, or one
// computed inline (a submission from a pool worker) is a documented
// no-op that returns false — a running computation is never preempted.
//
// Abandoning a ticket without waiting is safe: the service still answers
// the underlying request (the destructor's drain guarantee counts
// servicers, not tickets), and the shared state dies with its last
// owner. Tickets outlive their service safely too — cancel() goes
// through a shared queue reference, and a destroyed service has already
// drained the queue, so such a cancel simply returns false.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "service/request.hpp"

namespace treesched {

class RequestQueue;

namespace detail {

/// Completion state shared by a Ticket and the queue entry that answers
/// it.
struct TicketState {
  std::mutex mutex;
  std::condition_variable cv;
  std::optional<ServiceResult> result;
  /// Completion hook (Ticket::on_complete). Stored under the mutex,
  /// invoked exactly once OUTSIDE it (so the callback may touch the
  /// ticket, cancel other tickets, or block without deadlocking):
  /// by the settling thread when attached before settlement, by the
  /// subscribing thread when attached after.
  std::function<void(const ServiceResult&)> on_complete;
  /// Single-shot guard for Ticket::on_complete — survives the settler
  /// moving the callback out, so a second subscription is rejected even
  /// after the first already ran.
  bool on_complete_attached = false;
};

/// Settles `state` (idempotent: a second call is ignored — by
/// construction each ticket has exactly one answerer, the guard is
/// defense in depth) and wakes every waiter.
void complete_ticket(const std::shared_ptr<TicketState>& state,
                     ServiceResult result);

}  // namespace detail

class Ticket {
 public:
  /// An empty ticket (not obtained from submit()); wait()/try_get()
  /// resolve to a kBadRequest error, cancel() to false.
  Ticket() = default;

  Ticket(Ticket&&) noexcept = default;
  Ticket& operator=(Ticket&&) noexcept = default;
  Ticket(const Ticket&) = delete;
  Ticket& operator=(const Ticket&) = delete;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// Blocks until the request is answered; returns the settled result.
  [[nodiscard]] ServiceResult wait();

  /// Bounded wait: the settled result, or std::nullopt on timeout.
  [[nodiscard]] std::optional<ServiceResult> wait_for(
      std::chrono::milliseconds timeout);

  /// Non-blocking poll: the settled result, or std::nullopt while the
  /// request is still pending.
  [[nodiscard]] std::optional<ServiceResult> try_get();

  /// Cancels the request iff it is still in the admission queue: removes
  /// the entry (counted per class in QueueStats::cancelled) and settles
  /// this ticket with the kCancelled error. Returns false — and changes
  /// nothing — when the request is already running, already answered,
  /// was computed inline, or was cancelled before.
  bool cancel();

  /// Subscribes `fn` to this ticket's completion: invoked exactly once
  /// with the settled result, on whichever thread settles the ticket (a
  /// pool worker for computed answers, the cancelling thread for
  /// cancellations) — or immediately on THIS thread when the ticket has
  /// already settled, which closes the settle-before-subscribe race: no
  /// completion is ever missed. The callback runs outside the ticket's
  /// internal lock, so it may wait, cancel, or submit freely; it must
  /// not throw. The Ticket object itself may be discarded after
  /// subscribing — the hook lives in the shared completion state. This
  /// is what lets an event-driven caller (the net/ server's I/O thread)
  /// be woken on completion instead of polling try_get().
  /// Single-shot: a second subscription throws std::logic_error. An
  /// empty ticket invokes `fn` immediately with the kBadRequest error.
  void on_complete(std::function<void(const ServiceResult&)> fn);

 private:
  friend class SchedulingService;

  Ticket(std::shared_ptr<detail::TicketState> state,
         std::shared_ptr<RequestQueue> queue, std::uint64_t seq)
      : state_(std::move(state)), queue_(std::move(queue)), seq_(seq) {}

  std::shared_ptr<detail::TicketState> state_;
  /// Shared so cancel() stays safe after the owning service is gone.
  /// Null for inline-computed (never queued) tickets.
  std::shared_ptr<RequestQueue> queue_;
  std::uint64_t seq_ = 0;
};

}  // namespace treesched
