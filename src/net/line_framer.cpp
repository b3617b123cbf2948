#include "net/line_framer.hpp"

#include <algorithm>

namespace treesched::net {

void LineFramer::buffer(const char* data, std::size_t len) {
  // Oversized line: stop buffering at max_line, keep counting until the
  // newline resynchronizes the stream.
  const std::size_t room = max_line_ - partial_.size();
  const std::size_t kept = std::min(len, room);
  partial_.append(data, kept);
  dropped_ += len - kept;
}

LineFramer::LineView LineFramer::complete(std::string_view kept,
                                          std::size_t dropped) {
  LineView line;
  line.overflow = dropped > 0;
  line.wire_bytes = kept.size() + dropped;
  if (!kept.empty() && kept.back() == '\r' && dropped == 0) {
    // CRLF: the '\r' belongs to the terminator, not the text. An
    // overflowed line keeps whatever truncated prefix it has — it is
    // answered bad_request regardless.
    kept.remove_suffix(1);
  }
  line.text = kept;
  return line;
}

std::vector<LineFramer::Line> LineFramer::feed(const char* data,
                                               std::size_t len) {
  std::vector<Line> lines;
  feed(data, len, [&lines](const LineView& line) {
    lines.push_back({std::string(line.text), line.overflow, line.wire_bytes});
    return true;
  });
  return lines;
}

std::optional<LineFramer::Line> LineFramer::finish() {
  if (partial_.empty() && dropped_ == 0) return std::nullopt;
  const LineView view = complete(partial_, dropped_);
  Line line{std::string(view.text), view.overflow, view.wire_bytes};
  partial_.clear();
  dropped_ = 0;
  return line;
}

TextLine parse_text_line(const LineFramer::LineView& line,
                         std::size_t max_line, RequestView& req,
                         std::string& error) {
  if (line.overflow) {
    error = "request line of " + std::to_string(line.wire_bytes) +
            " bytes exceeds the " + std::to_string(max_line) + "-byte limit";
    return TextLine::kOversized;
  }
  std::string_view text = line.text;
  text = text.substr(0, text.find('#'));
  if (text.find_first_not_of(" \t\r") == std::string_view::npos) {
    return TextLine::kBlank;
  }
  return parse_request_view(text, req, error) ? TextLine::kRequest
                                              : TextLine::kMalformed;
}

}  // namespace treesched::net
