#pragma once
// The text wire grammar, protocol v2, that schedule_server,
// schedule_router and the stdin front-end (schedule_service, a server
// with one local client) all speak. Its owned types, the response writer
// and the response parser live here, its one request parser in
// request_view.hpp — in the library rather than inside an example
// binary, so tests can pin the grammar, in particular that unknown
// fields and unknown error codes are rejected by name, never silently
// accepted.
//
// Request lines (one per line):
//   <tree-spec> <algo> <p> [<memory-cap>] [<key>=<value> ...]
//   cancel id=<n>
//   ping [id=<n>]
//   stats [id=<n>]
//   trace start|stop|status|pull [id=<n>]
//   trace dump=<path> [id=<n>]
// with the named fields
//   priority=interactive|batch|bulk   admission class (default batch)
//   deadline_ms=<positive float>      give up if still queued after this
//   id=<n>                            client-chosen request tag (v2)
// Positional fields keep the PR 2 wire format; named fields are
// order-insensitive and must come after the positional ones. An unknown
// or repeated <key>= raises a parse error naming the field; a bare
// trailing token raises the classic trailing-token error.
//
// The id= tag is what makes out-of-order answering possible: a tagged
// request's response carries the same id, so the server may stream it
// the moment it completes instead of holding the line order, and a
// later `cancel id=<n>` line can name it. Untagged requests are still
// answered in submission order.
//
// `ping` and `stats` are control lines for load balancers and health
// probes: both are answered immediately by the front-end itself (no
// scheduler compute, never queued), out of band of any pending window —
// a server drowning in Bulk work still answers its health check.
//
// `trace` drives the in-process span recorder (obs/trace.hpp): start
// and stop toggle it, status reports counters (per-ring drop counts
// included), dump=<path> writes the collected spans as Chrome
// trace_event JSON to a server-side file, and pull answers the spans
// themselves encoded as stats pairs — how the cluster router collects
// backend rings for a merged cross-tier dump. Like ping/stats it is
// answered immediately by the front-end.
//
// Response lines (v2):
//   ok [id=<n>] tree=<hex> n=<nodes> algo=<name> p=<p> makespan=<f>
//      peak_memory=<bytes> cache=hit|miss priority=<class>   (one line)
//   error [id=<n>] code=<error-code> <message...>
//   pong [id=<n>]
//   stats [id=<n>] <key>=<non-negative integer> ...
//   trace [id=<n>] <key>=<non-negative integer> ...
// where <error-code> is an ErrorCode wire spelling (service/errors.hpp).
// parse_response_line rejects unknown codes by name — a client never has
// to guess what a new server means. A stats line's keys are free-form
// (servers grow counters without breaking old clients); its values must
// all be non-negative integers.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/tree.hpp"
#include "service/errors.hpp"
#include "service/request.hpp"

namespace treesched {

/// One parsed request line. The tree is still a spec string — resolving
/// it (file IO, generators, interning) is the caller's business.
struct RequestLine {
  enum class Kind { kSchedule, kCancel, kPing, kStats, kTrace };
  Kind kind = Kind::kSchedule;

  /// Client-chosen tag (id=); required for kCancel, optional otherwise.
  std::optional<std::uint64_t> id;

  // kSchedule fields.
  std::string tree_spec;
  std::string algo;
  int p = 1;
  MemSize memory_cap = 0;
  Priority priority = Priority::kBatch;
  double deadline_ms = 0.0;  ///< <= 0 = none

  // kTrace fields: the action ("start" | "stop" | "status" | "dump")
  // and, for dump only, the server-side output path.
  std::string trace_action;
  std::string trace_path;
};

/// Parses a nonempty, comment-stripped request line: the owning copy-out
/// of parse_request_view (service/request_view.hpp), so both accept
/// exactly the same lines. Throws std::invalid_argument with
/// parse_request_view's message, naming the offending token or field,
/// on any violation of the grammar above.
RequestLine parse_request_line(const std::string& line);

/// One response, either direction of the wire. kSchedule lines carry a
/// schedule answer (`ok` discriminates ok/error); kPong answers ping;
/// kStats answers stats with free-form integer counters.
struct ResponseLine {
  enum class Kind { kSchedule, kPong, kStats, kTrace };
  Kind kind = Kind::kSchedule;
  bool ok = false;
  std::optional<std::uint64_t> id;

  /// kStats/kTrace payload, emitted/parsed in the order given. Keys are
  /// free-form identifiers; values non-negative integers. (A trace
  /// answer is a stats-shaped line under the `trace` verb: enabled,
  /// spans, dropped, and for dump the spans written.)
  std::vector<std::pair<std::string, std::uint64_t>> stats;

  // ok payload.
  TreeHash tree_hash = 0;
  NodeId n = 0;
  std::string algo;
  int p = 1;
  double makespan = 0.0;
  MemSize peak_memory = 0;
  bool cache_hit = false;
  Priority priority = Priority::kBatch;

  // error payload.
  ErrorCode code = ErrorCode::kBadRequest;
  std::string message;
};

/// Appends `resp` to `out` as one v2 response line (no trailing
/// newline). Numbers go through std::to_chars; the makespan is printed
/// as %.17g, which round-trips every double.
void append_response_line(std::string& out, const ResponseLine& resp);

/// append_response_line into a fresh string.
std::string format_response_line(const ResponseLine& resp);

/// Parses a v2 response line. Throws std::invalid_argument on a
/// malformed line or — the contract worth pinning — an error code whose
/// spelling the taxonomy does not know.
ResponseLine parse_response_line(const std::string& line);

}  // namespace treesched
