#pragma once
// Deadline-aware priority admission queue for the scheduling service: the
// stage between submit() and the shared thread pool.
//
// Ordering at dequeue time:
//   1. class preemption — any pending Interactive request is taken before
//      any Batch one, any Batch before any Bulk;
//   2. earliest-deadline-first within a class — deadline-tagged requests
//      in deadline order, then deadline-less ones in admission (FIFO)
//      order;
//   3. aging — a request that has waited longer than `age_after` in a
//      non-top class is promoted one class (and can keep climbing after
//      another full interval per level), so sustained Interactive load
//      cannot starve Bulk work.
//
// Expiry: a request whose deadline has passed when a worker pops is never
// handed out as work; pop() returns it in `expired` so the caller can
// answer it with the typed kDeadlineExpired error — expired requests cost
// no scheduler compute.
//
// Cancellation: cancel(seq) removes a still-queued entry, settles its
// ticket with the kCancelled error, and counts it per class — the queue
// mutex arbitrates the race against worker pickup, so exactly one of
// {cancel, pop} ever owns an entry. Per-class counters satisfy, once the
// queue has drained,
//     admitted == completed + expired + rejected + cancelled
// where `admitted` counts every push (accepted or not), `rejected` the
// pushes turned away at admission (queue full), `expired` the
// deadline-lapsed entries, `cancelled` the entries removed by cancel()
// and `completed` the entries handed to workers.
//
// The queue is a passive data structure: it owns no threads and never
// runs scheduler code. It settles tickets only for the failures it
// detects itself (kQueueFull at push, kCancelled at cancel); the service
// settles everything else (results and expiry).
// SchedulingService pairs each admitted entry with one thread-pool job;
// because any job pops the *currently* most urgent entry (not the one
// whose admission created the job), class preemption works even though
// the pool itself is FIFO — and a job whose entry was cancelled simply
// finds less work.
//
// Concurrency: every entry lives in the per-class buckets under one
// mutex, so push, pop (aging, expiry, EDF) and cancel all see one
// order. Pushes come from the I/O thread and pops from the pool's few
// workers, too little contention for a lock-free lane to pay off end to
// end.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "service/request.hpp"
#include "service/ticket.hpp"

namespace treesched {

struct RequestQueueConfig {
  /// Wait time after which a pending request is promoted one priority
  /// class (applied per level: Bulk needs two full intervals to reach
  /// Interactive). <= 0 disables aging.
  std::chrono::milliseconds age_after{250};
  /// Upper bound on pending entries; pushes beyond it are rejected with
  /// kQueueFull. 0 = unbounded.
  std::size_t max_pending = 0;
};

/// Monotonic per-class counters. All counters are attributed to the class
/// a request was *submitted* with, even after aging promotes it. Queue
/// waits are the service's queue_wait stage histogram
/// (SchedulingService::queue_wait_window).
struct ClassQueueStats {
  std::uint64_t admitted = 0;   ///< every push, accepted or rejected
  std::uint64_t rejected = 0;   ///< turned away at admission (queue full)
  std::uint64_t expired = 0;    ///< deadline passed while queued
  std::uint64_t completed = 0;  ///< popped live and handed to a worker
  std::uint64_t cancelled = 0;  ///< removed while queued by Ticket::cancel
  std::uint64_t aged = 0;       ///< class promotions granted
  /// Currently queued (point-in-time), by submitted class — an aged Bulk
  /// entry still counts as Bulk here.
  std::size_t pending = 0;
};

struct QueueStats {
  std::array<ClassQueueStats, kPriorityClasses> by_class;

  [[nodiscard]] const ClassQueueStats& of(Priority cls) const {
    return by_class[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] std::size_t pending() const {
    std::size_t n = 0;
    for (const ClassQueueStats& c : by_class) n += c.pending;
    return n;
  }
};

class RequestQueue {
 public:
  using Clock = std::chrono::steady_clock;

  /// One admitted request: the work item plus the ticket state its
  /// submitter holds. The queue moves entries around; the service
  /// settles the tickets (except kQueueFull/kCancelled, above).
  struct Entry {
    ScheduleRequest request;
    std::shared_ptr<detail::TicketState> ticket;
    Priority submitted = Priority::kBatch;  ///< class at admission
    Clock::time_point admitted{};
    /// Absolute deadline; time_point::max() = none.
    Clock::time_point deadline = Clock::time_point::max();
  };

  struct PopResult {
    /// The most urgent live entry, if any.
    std::optional<Entry> entry;
    /// Entries whose deadline lapsed while queued; the caller must answer
    /// each with kDeadlineExpired. Already counted as `expired`.
    std::vector<Entry> expired;
  };

  explicit RequestQueue(RequestQueueConfig config = {});

  /// Admits `req` under its own priority/deadline_ms fields and returns
  /// its cancellation sequence. On rejection (queue full) settles the
  /// ticket with the typed kQueueFull error itself and returns
  /// std::nullopt — the caller must not enqueue a worker for a rejected
  /// push.
  std::optional<std::uint64_t> push(
      ScheduleRequest req, std::shared_ptr<detail::TicketState> ticket);

  /// Ages, expires, and takes the most urgent live entry (none when the
  /// queue is empty or everything pending just expired). Never blocks.
  PopResult pop();

  /// Removes the entry admitted as `seq` iff it is still queued, counts
  /// it as cancelled, and settles its ticket with kCancelled. Returns
  /// false when no such entry is pending (already popped, already
  /// cancelled, or never admitted).
  bool cancel(std::uint64_t seq);

  [[nodiscard]] QueueStats stats() const;
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] const RequestQueueConfig& config() const { return config_; }

 private:
  /// EDF position within a class: deadline, then admission order.
  struct EdfKey {
    Clock::time_point deadline;
    std::uint64_t seq;
    bool operator<(const EdfKey& o) const {
      if (deadline != o.deadline) return deadline < o.deadline;
      return seq < o.seq;
    }
  };

  struct Stored {
    Entry entry;
    Clock::time_point last_aged{};  ///< admission, reset on each promotion
    std::uint64_t seq = 0;          ///< cancellation sequence (push order)
  };

  struct Bucket {
    std::map<EdfKey, Stored> items;
    /// Aging index: last_aged -> position in `items`.
    std::multimap<Clock::time_point, EdfKey> by_age;
  };

  /// Relaxed atomics: push() counts admitted and rejected before it
  /// takes the mutex (a rejected push never takes it at all), so the
  /// counters cannot rely on the lock. Each entry hits exactly one
  /// terminal counter, which keeps the per-class balance exact.
  struct Counters {
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> expired{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> cancelled{0};
    std::atomic<std::uint64_t> aged{0};
  };

  Bucket& bucket(int cls) { return buckets_[static_cast<std::size_t>(cls)]; }
  Counters& counters(Priority cls) {
    return counters_[static_cast<std::size_t>(cls)];
  }
  /// Reserves one pending slot against max_pending; exact under
  /// concurrency (over-reservers undo before rejecting).
  bool reserve_pending();
  /// Promotes every due entry one class (config_.age_after elapsed since
  /// its last promotion or admission). Called under mutex_.
  void age_pending(Clock::time_point now);
  /// Removes `key` from bucket `cls` (items + aging index + cancel
  /// index + pending counters) and returns the stored entry. Called
  /// under mutex_.
  Stored remove_stored(int cls, const EdfKey& key);

  RequestQueueConfig config_;
  mutable std::mutex mutex_;
  std::array<Bucket, kPriorityClasses> buckets_;
  std::array<Counters, kPriorityClasses> counters_;
  /// Cancellation index: seq -> (current class, EDF deadline), enough to
  /// rebuild the EdfKey and find the entry wherever aging moved it.
  std::unordered_map<std::uint64_t, std::pair<int, Clock::time_point>>
      by_seq_;
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::size_t> pending_{0};
  std::array<std::atomic<std::size_t>, kPriorityClasses> pending_by_class_{};
};

}  // namespace treesched
