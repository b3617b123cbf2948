#pragma once
// Zero-copy decode path for the request grammar — the one request
// parser. Both protocols parse through it: v3 payloads and v2 text lines
// on the server and the router (net::parse_text_line), and
// parse_request_line (request_line.hpp) is its owning copy-out for
// callers that keep the request. parse_request_view() tokenizes one
// request line in place: every field is a std::string_view into the
// caller's buffer, numbers go through std::from_chars, and the success
// path performs no allocation at all — no istringstream, no per-field
// std::string, no field map. The single owned copy of a request happens
// where it must: when the connection builds the ScheduleRequest that
// crosses into the service layer.
//
// The grammar is protocol v2's (request_line.hpp):
//   <tree-spec> <algo> <p> [<memory-cap>] [priority=...] [deadline_ms=...]
//       [id=...]
//   cancel id=<n>
//   ping [id=<n>]
//   stats [id=<n>]
//   trace start|stop|status|pull|dump=<path> [id=<n>]
// Every field is a whole whitespace-delimited token: `3id=4` is not a
// count followed by a tag, and numbers are decimal (from_chars; no hex
// floats, no leading '+' on deadline_ms).
//
// Lifetime: a RequestView borrows the input buffer. It is valid only
// while that buffer is (for the v3 front-end: until the FrameReader
// compacts, i.e. until the next read; for text lines: during the
// LineFramer callback) — consume it before reading on.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/tree.hpp"
#include "service/request_line.hpp"

namespace treesched {

/// One request, parsed in place. Mirrors RequestLine field-for-field
/// with string_views instead of strings.
struct RequestView {
  RequestLine::Kind kind = RequestLine::Kind::kSchedule;
  std::optional<std::uint64_t> id;

  // kSchedule fields (views into the parsed buffer).
  std::string_view tree_spec;
  std::string_view algo;
  int p = 1;
  MemSize memory_cap = 0;
  Priority priority = Priority::kBatch;
  double deadline_ms = 0.0;  ///< <= 0 = none

  // kTrace fields (mirror RequestLine's).
  std::string_view trace_action;
  std::string_view trace_path;
};

/// Parses one nonempty request line in place. Returns true and fills
/// `out` on success (no allocation); returns false and assigns a message
/// naming the offending token to `error` on any grammar violation.
bool parse_request_view(std::string_view line, RequestView& out,
                        std::string& error);

/// Borrow-view of an owned RequestLine (the inverse of the copy-out in
/// parse_request_line). The view borrows `line`'s strings — same
/// lifetime rules as any RequestView.
RequestView as_view(const RequestLine& line);

}  // namespace treesched
