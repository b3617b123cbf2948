#pragma once
// The service's error taxonomy: every way a scheduling request can fail,
// as a machine-readable code plus a human-readable message. This is the
// single failure vocabulary of the v2 API — tickets return
// Result<ScheduleResponse, ServiceError>, batch responses embed the same
// ServiceError, and the wire protocol spells the code (`code=queue_full`)
// so clients never parse prose.
//
// Exceptions still exist in two places only:
//   * the legacy wrapper surface (schedule()) rethrows the original
//     exception when one caused the error (the `cause` field) or a
//     typed exception mapped from the code;
//   * inside the compute engine, where scheduler code throws — submit()
//     catches at the boundary and converts to a ServiceError.

#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace treesched {

/// Machine-readable failure code. The wire spelling (to_string) is part
/// of the protocol-v2 contract; parse_error_code rejects unknown codes.
/// The NUMERIC values are part of the protocol-v3 contract (binary error
/// frames carry them verbatim — net/frame.hpp): existing values must
/// never be renumbered; new codes append at the end.
enum class ErrorCode : int {
  kUnknownAlgorithm = 0,  ///< algo name not in the SchedulerRegistry
  kInvalidResources = 1,  ///< bad p / stray memory cap / missing tree
  kDeadlineExpired = 2,   ///< deadline lapsed while the request was queued
  kQueueFull = 3,         ///< admission queue at max_pending, turned away
  kCancelled = 4,         ///< cancelled via Ticket::cancel() while queued
  kSchedulerFailure = 5,  ///< the scheduler itself failed on the instance
  kStoreFull = 6,         ///< instance store byte budget exhausted
  kBadRequest = 7,        ///< protocol-level violation (parse error,
                          ///< unknown id, malformed cancel, bad frame)
  kNodeUnavailable = 8,   ///< cluster router: the backend node chosen for
                          ///< this request died (or no node is up) and no
                          ///< retry on an alternate succeeded
};

/// Wire spelling of `code` ("unknown_algorithm", "queue_full", ...).
[[nodiscard]] std::string_view to_string(ErrorCode code);

/// Inverse of to_string; std::nullopt on an unknown spelling.
[[nodiscard]] std::optional<ErrorCode> parse_error_code(std::string_view text);

/// One failure, as a value. `cause` is set when the error was converted
/// from a thrown exception — it lets the legacy wrappers rethrow exactly
/// what the scheduler threw; errors born as values leave it empty.
struct ServiceError {
  ErrorCode code = ErrorCode::kSchedulerFailure;
  std::string message;
  std::exception_ptr cause;
};

// ---------------------------------------------------------------------------
// Exception types for the legacy (throwing) surfaces. QueueError is kept
// as the base of the admission-queue family so pre-v2 catch sites keep
// compiling.
// ---------------------------------------------------------------------------

/// Typed admission-queue rejection, thrown by the legacy schedule()
/// (value-path callers get the ServiceError code).
class QueueError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The request's deadline passed while it was queued, before any worker
/// picked it up. The scheduler was never run.
class DeadlineExpired : public QueueError {
  using QueueError::QueueError;
};

/// The queue's max_pending bound was hit; the request was turned away at
/// admission.
class QueueFull : public QueueError {
  using QueueError::QueueError;
};

/// The request was cancelled through its Ticket while still queued.
class Cancelled : public QueueError {
  using QueueError::QueueError;
};

/// The instance store's byte budget is exhausted; the tree was not
/// interned.
class StoreFull : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The exception the legacy surfaces throw for `error`: the original
/// `cause` when one exists, otherwise a typed exception mapped from the
/// code (kDeadlineExpired -> DeadlineExpired, kQueueFull -> QueueFull,
/// kCancelled -> Cancelled, kStoreFull -> StoreFull, kUnknownAlgorithm /
/// kInvalidResources / kBadRequest -> std::invalid_argument,
/// kSchedulerFailure / kNodeUnavailable -> std::runtime_error).
[[nodiscard]] std::exception_ptr to_exception(const ServiceError& error);

[[noreturn]] inline void throw_error(const ServiceError& error) {
  std::rethrow_exception(to_exception(error));
}

}  // namespace treesched
