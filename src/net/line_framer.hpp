#pragma once
// Incremental newline framing for the text front-ends (layer 1 of
// src/net/): turns an arbitrary sequence of read() chunks into protocol
// lines, no matter how the kernel fragments them — one byte at a time,
// a dozen lines per chunk, or a line split mid-token across reads.
//
//   LineFramer framer(max_line);
//   framer.feed(buf, n, [&](const LineFramer::LineView& line) {
//     ...;            // per complete line, zero-copy
//     return true;    // false: stop, the rest of the chunk is dropped
//   });
//   if (auto last = framer.finish()) ...   // at EOF/half-close
//
// The callback form finds newlines with memchr and hands each line over
// as a std::string_view into the caller's chunk; only a line that
// straddles two reads is copied, into the framer's own buffer.
// Lifetime: a LineView (and any view derived from it, such as a parsed
// RequestView) is valid only during the callback that received it —
// it points into the chunk or into a buffer the next line reuses.
// `feed(data, len)` returning std::vector<Line> is the owning form of
// the same framing, for callers that keep lines past the chunk.
//
// A line longer than `max_line` bytes is a protocol violation by the
// client, not a reason to buffer without bound or to kill the
// connection: the framer drops the excess, keeps scanning for the
// terminating '\n', and emits the line with `overflow = true` (text
// truncated to the limit) so the caller can answer a typed bad_request
// — and the connection survives, correctly framed, from the next line
// on.
//
// A trailing '\r' is stripped (CRLF clients: nc, telnet, load
// balancers). finish() flushes a final unterminated line at EOF, as
// std::getline does.

#include <cstddef>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/request_view.hpp"

namespace treesched::net {

class LineFramer {
 public:
  /// One framed line, borrowed (see the lifetime rule above).
  struct LineView {
    std::string_view text;
    /// The line exceeded max_line: `text` holds only the first
    /// max_line bytes; the rest was discarded up to the newline.
    bool overflow = false;
    /// Bytes the line carried on the wire (excluding the terminator),
    /// including any discarded overflow.
    std::size_t wire_bytes = 0;
  };

  /// The owning form of LineView.
  struct Line {
    std::string text;
    bool overflow = false;
    std::size_t wire_bytes = 0;
  };

  explicit LineFramer(std::size_t max_line = kDefaultMaxLine)
      : max_line_(max_line) {}

  /// Consumes one read() chunk, calling `on_line(const LineView&)` for
  /// every line it completes, in order. When `on_line` returns false
  /// the rest of the chunk is left unexamined. A trailing partial line
  /// is buffered for the next feed.
  template <class OnLine>
  void feed(const char* data, std::size_t len, OnLine&& on_line);

  /// The owning form: every line the chunk completes, in order.
  std::vector<Line> feed(const char* data, std::size_t len);

  /// EOF: the final unterminated line, if any bytes are buffered.
  std::optional<Line> finish();

  /// Bytes currently buffered for an incomplete line (bounded by
  /// max_line even while an oversized line streams in).
  [[nodiscard]] std::size_t partial_bytes() const { return partial_.size(); }

  [[nodiscard]] std::size_t max_line() const { return max_line_; }

  static constexpr std::size_t kDefaultMaxLine = 64 * 1024;

 private:
  /// Appends [data, data + len) to the in-progress line, keeping at
  /// most max_line bytes and counting the rest as dropped.
  void buffer(const char* data, std::size_t len);
  /// The view of a complete line whose first max_line bytes are `kept`
  /// and whose further `dropped` bytes were discarded.
  static LineView complete(std::string_view kept, std::size_t dropped);

  std::size_t max_line_;
  std::string partial_;
  /// Wire bytes of the in-progress line beyond what partial_ holds.
  std::size_t dropped_ = 0;
};

template <class OnLine>
void LineFramer::feed(const char* data, std::size_t len, OnLine&& on_line) {
  const char* const end = data + len;
  while (data != end) {
    const std::size_t left = static_cast<std::size_t>(end - data);
    const auto* nl = static_cast<const char*>(std::memchr(data, '\n', left));
    if (nl == nullptr) {
      buffer(data, left);
      return;
    }
    const std::size_t size = static_cast<std::size_t>(nl - data);
    bool more = true;
    if (partial_.empty() && dropped_ == 0) {
      // The whole line is inside this chunk: hand out a view of it.
      const std::size_t kept = size < max_line_ ? size : max_line_;
      more = on_line(complete({data, kept}, size - kept));
    } else {
      buffer(data, size);
      more = on_line(complete(partial_, dropped_));
      partial_.clear();
      dropped_ = 0;
    }
    data = nl + 1;
    if (!more) return;
  }
}

/// What a text front-end does with one framed line.
enum class TextLine {
  kBlank,      ///< empty, whitespace or `#` comment only: no answer
  kRequest,    ///< parsed: dispatch the RequestView
  kOversized,  ///< over max_line: answer bad_request with `error`
  kMalformed,  ///< grammar violation: answer bad_request with `error`
};

/// The line handling every text front-end shares: refuses an oversized
/// line by size, strips a `#` comment, skips a blank line, and parses
/// the rest with parse_request_view. `req` borrows `line.text`.
TextLine parse_text_line(const LineFramer::LineView& line,
                         std::size_t max_line, RequestView& req,
                         std::string& error);

}  // namespace treesched::net
