#pragma once
// Request/response vocabulary shared by the scheduling service, its
// admission queue (service/request_queue.hpp) and the ticket surface
// (service/ticket.hpp). Split out of service.hpp so those layers can
// speak requests without a circular include.
//
// Priority classes order requests at dequeue time, not at compute time:
// a running computation is never preempted, but whenever a worker frees
// up it takes the most urgent admitted request — Interactive before
// Batch before Bulk, earliest deadline first within a class.
//
// Failures are values: ScheduleResponse carries an optional ServiceError
// (service/errors.hpp) with a machine-readable code, and the ticket
// surface returns ServiceResult = Result<ScheduleResponse, ServiceError>.
// Callers branch on the code, never on message text.

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/schedule.hpp"
#include "obs/stages.hpp"
#include "service/errors.hpp"
#include "service/instance_store.hpp"
#include "util/result.hpp"

namespace treesched {

/// Admission class of a request. Lower value = more urgent. kInteractive
/// is meant for latency-sensitive probes (a CLI user waiting on the
/// answer), kBatch for ordinary programmatic batches, kBulk for campaign
/// sweeps that value throughput only. Aging promotes starved lower-class
/// requests one class at a time (RequestQueueConfig::age_after).
enum class Priority : int {
  kInteractive = 0,
  kBatch = 1,
  kBulk = 2,
};

inline constexpr int kPriorityClasses = 3;

inline const char* to_string(Priority cls) {
  switch (cls) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
    case Priority::kBulk:
      return "bulk";
  }
  return "?";
}

/// Parses the wire spelling ("interactive" | "batch" | "bulk");
/// std::nullopt on anything else.
inline std::optional<Priority> parse_priority(std::string_view text) {
  if (text == "interactive") return Priority::kInteractive;
  if (text == "batch") return Priority::kBatch;
  if (text == "bulk") return Priority::kBulk;
  return std::nullopt;
}

struct ScheduleRequest {
  TreeHandle tree;        ///< interned via SchedulingService::intern()
  std::string algo;       ///< SchedulerRegistry name
  int p = 1;              ///< processors (Resources::p)
  MemSize memory_cap = 0; ///< Resources::memory_cap
  /// Fill ScheduleResponse::schedule (the full start/proc vectors) rather
  /// than just the scores.
  bool want_schedule = false;
  /// Admission class. Every submission goes through the queue (except
  /// nested submissions from pool workers, which compute inline), so the
  /// class is honored uniformly across submit() and all legacy wrappers.
  /// Never part of the cache key.
  Priority priority = Priority::kBatch;
  /// Deadline relative to submission; <= 0 means none. A request whose
  /// deadline passes while it is still queued is answered with the
  /// kDeadlineExpired error instead of ever reaching a compute worker.
  double deadline_ms = 0.0;
  /// Per-stage timestamps (obs/stages.hpp). The front-end stamps
  /// accept/parse before submitting; the service stamps
  /// admit/dequeue/compute as the request moves through it. Never part
  /// of the cache key.
  obs::StageStamps stamps;
};

struct ScheduleResponse {
  double makespan = 0.0;
  MemSize peak_memory = 0;
  bool cache_hit = false;  ///< answered from cache: counted as a hit
  /// Shares the cached result's schedule; only set when want_schedule.
  std::shared_ptr<const Schedule> schedule;
  /// Engaged iff the request failed (the scores are meaningless then).
  /// Set on the batch collection paths; Ticket::wait() returns the same
  /// error through ServiceResult instead, and the legacy schedule() /
  /// future surfaces convert it into the corresponding exception.
  std::optional<ServiceError> error;
  /// The request's stamps as of settlement, so the front-end that
  /// submitted it can stamp serialize/flush and log a full stage
  /// breakdown for slow requests.
  obs::StageStamps stamps;

  [[nodiscard]] bool ok() const { return !error.has_value(); }
};

/// What a Ticket resolves to: the response, or the typed failure.
using ServiceResult = Result<ScheduleResponse, ServiceError>;

/// Legacy bridge: the response, or throw what the pre-v2 API would have
/// thrown (the original scheduler exception when one caused the error,
/// the mapped typed exception otherwise).
inline ScheduleResponse unwrap(ServiceResult result) {
  if (!result.ok()) throw_error(result.error());
  return std::move(result).value();
}

/// Folds a ServiceResult into the batch-path response shape: failures
/// land in ScheduleResponse::error instead of throwing.
inline ScheduleResponse to_response(ServiceResult result) {
  if (result.ok()) return std::move(result).value();
  ScheduleResponse resp;
  resp.error = std::move(result.error());
  return resp;
}

}  // namespace treesched
