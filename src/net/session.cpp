#include "net/session.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <utility>

#include "net/frontend.hpp"
#include "obs/event_log.hpp"
#include "obs/trace.hpp"
#include "util/confine.hpp"

namespace treesched::net {

ResponseLine error_answer(ErrorCode code, std::string message) {
  ResponseLine line;
  line.ok = false;
  line.code = code;
  line.message = std::move(message);
  return line;
}

Session::Session(Frontend& frontend, int fd, std::uint64_t id)
    : frontend_(frontend),
      config_(frontend.config().session),
      fd_(fd),
      id_(id),
      framer_(config_.max_line),
      reader_(config_.max_frame) {
  // The accept moment doubles as the first burst stamp, so a request
  // that somehow precedes the first readable event still has one.
  burst_ns_ = obs::now_ns();
  interest_ = EPOLLIN;
  frontend_.loop().add(fd_, interest_,
                       [this](std::uint32_t events) { handle_events(events); });
}

Session::~Session() {
  // A vanished client's work must not occupy a worker or a backend
  // queue: withdraw whatever can still be withdrawn. Work already under
  // way runs to completion and its answer is dropped on arrival.
  closing_ = true;
  const std::vector<Open> open = std::exchange(open_, {});
  for (const Open& entry : open) {
    (void)frontend_.handler().cancel(*this, entry.key);
  }
  frontend_.loop().remove(fd_);
  ::close(fd_);
}

void Session::handle_events(std::uint32_t events) {
  if (events & EPOLLERR) {
    abort_session();
    return;
  }
  if (events & EPOLLOUT) {
    send_buffered();
    if (closing_) return;
  }
  if (events & EPOLLIN) {
    on_readable();
    if (closing_) return;
  } else if (events & EPOLLHUP) {
    // Peer fully closed and nothing left to read: any buffered answers
    // are undeliverable.
    abort_session();
    return;
  }
  update_interest();
  finish_if_drained();
}

void Session::on_readable() {
  // One clock read per readable event stamps accept/parse for every
  // request framed out of this burst.
  burst_ns_ = obs::now_ns();
  std::array<char, 16384> buf;
  while (!read_closed_ && !closing_ && !window_paused_) {
    // v3 reads straight into the FrameReader's buffer, so payloads are
    // parsed in place; text reads into a chunk the LineFramer scans.
    const bool binary = mode_ == Mode::kBinary;
    char* dst = binary ? reader_.write_ptr() : buf.data();
    const std::size_t capacity =
        binary ? reader_.write_capacity() : buf.size();
    const ssize_t n = ::read(fd_, dst, capacity);
    if (n > 0) {
      if (binary) {
        reader_.commit(static_cast<std::size_t>(n));
        drain_frames();
      } else {
        handle_bytes(buf.data(), static_cast<std::size_t>(n));
      }
      if (closing_) return;
      // Stop reading while the client outpaces its own reading (the
      // write buffer, or the answers its window holds back), and on a
      // short read: the socket is drained, and level-triggered epoll
      // re-signals anything that raced in.
      if (buffered() > config_.max_wbuf || window_full() ||
          static_cast<std::size_t>(n) < capacity) {
        break;
      }
      continue;
    }
    if (n == 0) {
      // Orderly EOF (half-close): answer everything, then close. A final
      // unterminated line still counts, as it would for std::getline; a
      // truncated frame or magic can never complete.
      read_closed_ = true;
      SessionCounters& counters = frontend_.counters();
      if (binary && reader_.buffered() > 0) {
        ++counters.frames_bad;
        answer_now(error_answer(ErrorCode::kBadRequest,
                                "connection half-closed mid-frame (" +
                                    std::to_string(reader_.buffered()) +
                                    " unframed bytes)"),
                   kSloAllOnly);
      } else if (mode_ == Mode::kDetect && !prelude_.empty()) {
        mode_ = Mode::kBinary;  // they spoke 0xB3: answer in kind
        ++counters.frames_bad;
        answer_now(error_answer(ErrorCode::kBadRequest,
                                "connection closed inside the protocol magic"),
                   kSloAllOnly);
      } else if (!binary) {
        if (const auto last = framer_.finish()) {
          handle_line({last->text, last->overflow, last->wire_bytes});
        }
      }
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    abort_session();  // ECONNRESET and friends
    return;
  }
  flush_ready();
  send_buffered();
}

void Session::handle_bytes(const char* data, std::size_t len) {
  if (mode_ == Mode::kDetect) {
    // Buffer until the first byte (and, for 0xB3, the full 4-byte
    // magic) resolves the protocol.
    prelude_.append(data, len);
    if (prelude_.front() == kFrameMagic.front()) {
      if (prelude_.size() < kFrameMagic.size()) return;  // still partial
      mode_ = Mode::kBinary;
      if (std::string_view(prelude_).substr(0, kFrameMagic.size()) !=
          kFrameMagic) {
        ++frontend_.counters().frames_bad;
        protocol_violation("bad protocol magic");
        return;
      }
      ++frontend_.counters().v3_conns;
      note_detected();
      if (prelude_.size() > kFrameMagic.size()) {
        reader_.feed(prelude_.data() + kFrameMagic.size(),
                     prelude_.size() - kFrameMagic.size());
      }
      prelude_ = {};
      drain_frames();
      return;
    }
    // 0xB3 is not printable ASCII, so no v2 text line starts with it:
    // this session is text. Replay the prelude through the framer.
    mode_ = Mode::kText;
    note_detected();
    const std::string prelude = std::exchange(prelude_, {});
    handle_bytes(prelude.data(), prelude.size());
    return;
  }
  framer_.feed(data, len, [this](const LineFramer::LineView& line) {
    handle_line(line);
    return !closing_ && !read_closed_;
  });
}

void Session::note_detected() {
  // One span per session marking protocol negotiation (burst start to
  // resolution): the first hop of a cross-tier trace timeline.
  obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.enabled()) return;
  tracer.record("net/detect", burst_ns_, obs::now_ns() - burst_ns_, id_);
}

void Session::handle_line(const LineFramer::LineView& line) {
  ++frontend_.counters().lines;
  RequestView req;
  std::string error;
  switch (parse_text_line(line, framer_.max_line(), req, error)) {
    case TextLine::kBlank:
      return;
    case TextLine::kMalformed:
      ++frontend_.counters().parse_errors;
      [[fallthrough]];
    case TextLine::kOversized:
      // Untagged: a positional client correlates answers by line, so the
      // error keeps its place in the stream.
      push_error(ErrorCode::kBadRequest, std::move(error), kSloAllOnly);
      return;
    case TextLine::kRequest:
      dispatch_request(req, TraceContext{});
      return;
  }
}

void Session::drain_frames() {
  Frame frame;
  while (!closing_ && !read_closed_ && !window_full()) {
    const FrameReader::Status status = reader_.next(frame);
    if (status == FrameReader::Status::kNeedMore) return;
    if (status == FrameReader::Status::kBad) {
      ++frontend_.counters().frames_bad;
      protocol_violation(reader_.bad_reason());
      return;
    }
    ++frontend_.counters().frames_in;
    handle_frame(frame);
  }
}

void Session::handle_frame(const Frame& frame) {
  SessionCounters& counters = frontend_.counters();
  std::string error;
  switch (frame.opcode) {
    case Opcode::kRequest:
    case Opcode::kBatch: {
      // The trace extension leads the payload (before a batch's entry
      // count); every entry of a batch shares the frame's context.
      TraceContext ctx;
      std::string_view rest;
      if (!split_trace_context(frame, ctx, rest, error)) break;
      if (frame.opcode == Opcode::kRequest) {
        handle_request_payload(rest, ctx);
        return;
      }
      std::vector<std::string_view> entries;
      if (!decode_batch(rest, entries, error)) break;
      counters.batch_requests += entries.size();
      // One frame, many pipelined requests: their answers coalesce and
      // flush together.
      for (const std::string_view entry : entries) {
        handle_request_payload(entry, ctx);
        if (closing_ || read_closed_) return;
      }
      return;
    }
    case Opcode::kCancel: {
      std::uint64_t cancel_id = 0;
      if (!decode_cancel(frame, cancel_id)) {
        error = "cancel frame payload is not one u64 id";
        break;
      }
      handle_cancel(cancel_id);
      return;
    }
    case Opcode::kPing:
    case Opcode::kStats: {
      RequestView req;
      req.kind = frame.opcode == Opcode::kPing ? RequestLine::Kind::kPing
                                               : RequestLine::Kind::kStats;
      if (!decode_control_id(frame, req.id)) {
        error = "control frame payload contradicts its flags";
        break;
      }
      dispatch_request(req, TraceContext{});
      return;
    }
    default:
      error = "unknown opcode " + std::to_string(static_cast<int>(frame.opcode));
      break;
  }
  ++counters.frames_bad;
  protocol_violation(std::move(error));
}

void Session::handle_request_payload(std::string_view payload,
                                     const TraceContext& ctx) {
  ++frontend_.counters().lines;
  RequestView req;
  std::string error;
  bool parsed;
  {
    // The parse span carries the propagated trace id, so a cross-tier
    // timeline shows where each hop spent its grammar time.
    obs::ScopedSpan span(obs::Tracer::global(), "net/parse", ctx.trace_id);
    parsed = parse_request_view(payload, req, error);
  }
  if (!parsed) {
    // A grammar error is the client's problem, not a protocol
    // violation: answer in stream order and keep going, like a bad line.
    ++frontend_.counters().parse_errors;
    push_error(ErrorCode::kBadRequest, std::move(error), kSloAllOnly);
    return;
  }
  dispatch_request(req, ctx);
}

void Session::protocol_violation(std::string message) {
  // Unlike a bad text line (the next newline resynchronizes), framing is
  // unrecoverable after a bad frame: answer once, stop reading, let the
  // window settle and flush, then close. The hostile bytes past the
  // violation are never examined.
  answer_now(error_answer(ErrorCode::kBadRequest, std::move(message)),
             kSloAllOnly);
  read_closed_ = true;
}

bool Session::window_full() {
  // Settled answers at the head go out now; what is left waits behind an
  // unsettled entry, and max_pending of those pause reading.
  if (settled_ >= config_.max_pending) {
    flush_ready();
    if (settled_ >= config_.max_pending) window_paused_ = true;
  }
  return window_paused_;
}

void Session::dispatch_request(const RequestView& req,
                               const TraceContext& ctx) {
  switch (req.kind) {
    case RequestLine::Kind::kSchedule:
      handle_schedule(req, ctx);
      return;
    case RequestLine::Kind::kCancel:
      handle_cancel(*req.id);
      return;
    case RequestLine::Kind::kTrace:
      handle_trace(req);
      return;
    case RequestLine::Kind::kPing:
    case RequestLine::Kind::kStats: {
      // Out of band of the window: a session drowning in work still
      // answers its load balancer immediately.
      ResponseLine line;
      line.kind = req.kind == RequestLine::Kind::kPing
                      ? ResponseLine::Kind::kPong
                      : ResponseLine::Kind::kStats;
      line.ok = true;
      line.id = req.id;
      if (line.kind == ResponseLine::Kind::kStats) {
        line.stats = frontend_.registry().snapshot().stats_pairs();
      }
      answer_now(line, kSloNone);
      return;
    }
  }
}

void Session::handle_schedule(const RequestView& req,
                              const TraceContext& ctx) {
  const int cls = static_cast<int>(req.priority);
  if (req.id && find_open(*req.id) != nullptr) {
    push_error(ErrorCode::kBadRequest,
               "duplicate id=" + std::to_string(*req.id) +
                   " (a request with this tag is still pending)",
               cls);
    return;
  }
  if (inflight_ >= config_.max_pending) {
    // The per-session admission bound: typed, immediate, and cheap —
    // the handler never sees the request.
    obs::EventLog::global().emit(
        "queue_full", ctx.trace_id,
        {obs::EventLog::Field::u64("conn", id_),
         obs::EventLog::Field::u64("window", config_.max_pending)});
    refuse(req.id, ErrorCode::kQueueFull,
           "connection window full (" + std::to_string(config_.max_pending) +
               " requests in flight); read some answers first",
           cls);
    return;
  }
  const std::uint64_t key = open_entry(req.id, cls, /*schedule=*/true);
  window_.back().trace_id = ctx.trace_id;
  if (std::optional<ServiceError> refused =
          frontend_.handler().schedule(*this, key, req, ctx)) {
    drop_last(key);
    refuse(req.id, refused->code, std::move(refused->message), cls);
  }
}

void Session::handle_cancel(std::uint64_t cancel_id) {
  // Either way the ack is untagged (a late cancel racing the answer must
  // not put a second id=N answer on the wire) and keeps stream order.
  const Open* target = find_open(cancel_id);
  if (target == nullptr) {
    push_error(ErrorCode::kBadRequest,
               "cancel id=" + std::to_string(cancel_id) +
                   ": no pending request with this id",
               kSloAllOnly);
    return;
  }
  const std::uint64_t key = target->key;
  if (!frontend_.handler().cancel(*this, key)) {
    push_error(ErrorCode::kBadRequest,
               "cancel id=" + std::to_string(cancel_id) + ": request already " +
                   frontend_.wording().started + " or answered",
               kSloAllOnly);
  }
}

void Session::handle_trace(const RequestView& req) {
  // The tracer is process-wide: every session drives the same one, so
  // one client can turn tracing on while load comes from anywhere.
  obs::Tracer& tracer = obs::Tracer::global();
  SessionHandler& handler = frontend_.handler();
  ResponseLine line;
  line.kind = ResponseLine::Kind::kTrace;
  line.ok = true;
  line.id = req.id;
  if (req.trace_action == "start" || req.trace_action == "stop") {
    const bool on = req.trace_action == "start";
    if (on) {
      tracer.enable();
    } else {
      tracer.disable();
    }
    handler.trace_switched(on);
  } else if (req.trace_action == "pull") {
    // The spans themselves, encoded as pairs (the primitive a router's
    // merged dump is built on), bounded so the reply fits a frame.
    obs::encode_span_pairs(tracer.snapshot(), obs::kTracePullMaxSpans,
                           line.stats);
    answer_now(line, kSloNone);
    return;
  } else if (req.trace_action == "dump") {
    // A dump writes a file on this host, so it is off unless the
    // operator configured a trace directory, and the client's path is
    // confined to it.
    std::string resolved;
    std::optional<ResponseLine> answer;
    if (config_.trace_dir.empty()) {
      answer = error_answer(ErrorCode::kBadRequest,
                            "trace dump is disabled on this " +
                                frontend_.wording().tier +
                                " (start it with --trace-dir to allow dumps)");
    } else if (!confine_relative_path(config_.trace_dir, req.trace_path,
                                      resolved)) {
      answer = error_answer(
          ErrorCode::kBadRequest,
          "trace dump path must be a relative name inside the " +
              frontend_.wording().tier +
              "'s trace directory (no absolute paths, no \"..\")");
    } else {
      // The dump may settle later (the router waits on its nodes), so
      // it takes a window entry first: untagged answers behind it keep
      // submission order, and a synchronous settle finds the entry.
      const std::uint64_t key = open_entry(req.id, kSloNone, false);
      answer = handler.trace_dump(*this, key, std::move(resolved));
      if (answer) drop_last(key);
    }
    if (answer) {
      answer->id = req.id;
      answer_now(*answer, kSloNone);
    }
    return;
  }  // "status" mutates nothing
  line.stats = {
      {"enabled", tracer.enabled() ? 1 : 0},
      {"spans", tracer.recorded()},
      {"dropped", tracer.dropped()},
  };
  if (req.trace_action == "status") {
    // Per-recording-thread overwrite counts: a truncated dump can name
    // the thread that lost spans instead of one opaque total.
    for (const auto& [tid, drops] : tracer.dropped_by_ring()) {
      line.stats.emplace_back("ring" + std::to_string(tid) + "_dropped",
                              drops);
    }
    handler.trace_status(line.stats);
  }
  answer_now(line, kSloNone);
}

std::uint64_t Session::open_entry(std::optional<std::uint64_t> id, int cls,
                                  bool schedule) {
  Entry& entry = window_.emplace_back();
  entry.key = next_key_++;
  entry.id = id;
  entry.cls = cls;
  open_.push_back(Open{entry.key, id, schedule});
  if (schedule) ++inflight_;
  return entry.key;
}

void Session::drop_last(std::uint64_t key) {
  if (window_.empty() || window_.back().key != key || open_.empty() ||
      open_.back().key != key) {
    return;
  }
  if (open_.back().schedule) --inflight_;
  open_.pop_back();
  window_.pop_back();
}

void Session::push_error(ErrorCode code, std::string message, int cls) {
  Entry& entry = window_.emplace_back();
  entry.key = next_key_++;
  entry.cls = cls;
  entry.settled = true;
  entry.answer = error_answer(code, std::move(message));
  ++settled_;
}

void Session::refuse(std::optional<std::uint64_t> id, ErrorCode code,
                     std::string message, int cls) {
  if (!id) {
    push_error(code, std::move(message), cls);
    return;
  }
  ResponseLine line = error_answer(code, std::move(message));
  line.id = id;
  answer_now(line, cls);
}

const Session::Open* Session::find_open(std::uint64_t tag) const {
  for (const Open& entry : open_) {
    if (entry.id && *entry.id == tag) return &entry;
  }
  return nullptr;
}

void Session::deliver(std::uint64_t key, ResponseLine answer,
                      const obs::StageStamps& stamps) {
  // Keys ascend through the window; a synchronous answer is its last
  // entry.
  auto it = window_.end();
  if (!window_.empty() && window_.back().key == key) {
    --it;
  } else {
    it = std::lower_bound(
        window_.begin(), window_.end(), key,
        [](const Entry& entry, std::uint64_t k) { return entry.key < k; });
  }
  if (it == window_.end() || it->key != key || it->settled) return;
  answer.id = it->id;
  it->answer = std::move(answer);
  it->stamps = stamps;
  it->settled = true;
  ++settled_;
  if (it->id) ++settled_tagged_;
  const auto open = std::find_if(open_.begin(), open_.end(),
                                 [key](const Open& o) { return o.key == key; });
  if (open != open_.end()) {
    if (open->schedule) --inflight_;
    open_.erase(open);
  }
  schedule_flush();
}

void Session::flush_ready() {
  emit_now_ns_ = 0;  // one lazy clock read serves the whole emit burst
  // The settled in-order prefix answers first…
  while (!window_.empty() && window_.front().settled) {
    Entry& entry = window_.front();
    --settled_;
    if (entry.id) --settled_tagged_;
    emit(entry);
    window_.pop_front();
  }
  if (settled_tagged_ == 0) return;
  // …then every settled tagged entry anywhere in the window (the tag
  // makes an out-of-order answer attributable), in one compacting pass.
  auto kept = window_.begin();
  for (auto it = window_.begin(); it != window_.end(); ++it) {
    if (it->settled && it->id) {
      --settled_;
      --settled_tagged_;
      emit(*it);
      continue;
    }
    if (kept != it) *kept = std::move(*it);
    ++kept;
  }
  window_.erase(kept, window_.end());
}

void Session::emit(Entry& entry) {
  send_response(entry.answer);
  const bool stamped = entry.stamps.has(obs::Stage::kAccept);
  if (entry.cls == kSloNone && !stamped) return;
  if (emit_now_ns_ == 0) emit_now_ns_ = obs::now_ns();
  frontend_.note_answer(entry.cls, entry.answer.ok, emit_now_ns_);
  if (!stamped) return;
  FlushMark mark;
  mark.timing.stamps = entry.stamps;
  mark.timing.stamps.stamp(obs::Stage::kSerialize, emit_now_ns_);
  mark.timing.priority = entry.answer.priority;
  mark.timing.id = entry.id;
  mark.timing.algo = std::move(entry.answer.algo);
  mark.timing.cache_hit = entry.answer.cache_hit;
  mark.timing.trace_id = entry.trace_id;
  // The answer is flushed once this many bytes have left the process.
  mark.target = cum_sent_ + buffered();
  flush_q_.push_back(std::move(mark));
}

void Session::answer_now(const ResponseLine& line, int cls) {
  send_response(line);
  if (cls != kSloNone) frontend_.note_answer(cls, line.ok, obs::now_ns());
}

void Session::send_response(const ResponseLine& line) {
  if (mode_ == Mode::kBinary) {
    FrameWriter writer(wbuf_);
    writer.response(line);
  } else {
    append_response_line(wbuf_, line);
    wbuf_.push_back('\n');
  }
}

void Session::schedule_flush() {
  if (flush_scheduled_ || closing_) return;
  flush_scheduled_ = true;
  // Answers delivered in one loop iteration share one window scan and
  // one send(). The session may be gone before the deferred call runs
  // (an abort posts its removal), so the closure re-resolves it by id.
  Frontend& frontend = frontend_;
  const std::uint64_t id = id_;
  frontend.loop().defer([&frontend, id] {
    if (Session* session = frontend.find(id)) session->flush_deferred();
  });
}

void Session::flush_deferred() {
  flush_scheduled_ = false;
  if (closing_) return;
  flush_ready();
  if (window_paused_ && settled_ <= config_.max_pending / 2) {
    // The window drained: frame what the pause left buffered, then let
    // epoll resume reading.
    window_paused_ = false;
    if (mode_ == Mode::kBinary) {
      burst_ns_ = obs::now_ns();
      drain_frames();
      flush_ready();
    }
  }
  send_buffered();
  if (closing_) return;
  update_interest();
  finish_if_drained();
}

void Session::send_buffered() {
  while (wbuf_head_ < wbuf_.size()) {
    const ssize_t n = ::send(fd_, wbuf_.data() + wbuf_head_, buffered(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      wbuf_head_ += static_cast<std::size_t>(n);
      cum_sent_ += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EPIPE/ECONNRESET: the client is gone; buffered answers are
    // undeliverable and unsettled work is cancelled.
    abort_session();
    return;
  }
  if (wbuf_head_ == wbuf_.size()) {
    wbuf_.clear();
    wbuf_head_ = 0;
  } else if (wbuf_head_ > 65536 && wbuf_head_ * 2 > wbuf_.size()) {
    wbuf_.erase(0, wbuf_head_);
    wbuf_head_ = 0;
  }
  // Every answer whose last byte just reached the kernel is flushed:
  // stamp once (the drained batch shares one clock read) and hand its
  // stage record to the handler.
  if (!flush_q_.empty() && cum_sent_ >= flush_q_.front().target) {
    const std::uint64_t now = obs::now_ns();
    do {
      FlushMark& mark = flush_q_.front();
      mark.timing.stamps.stamp(obs::Stage::kFlush, now);
      frontend_.handler().record_flushed(mark.timing);
      flush_q_.pop_front();
    } while (!flush_q_.empty() && cum_sent_ >= flush_q_.front().target);
  }
}

void Session::update_interest() {
  if (closing_) return;
  // Hysteresis: stop reading past the high watermark, resume only once
  // the client has drained us below half — no flapping per send cycle.
  if (buffered() > config_.max_wbuf) {
    wbuf_paused_ = true;
  } else if (buffered() <= config_.max_wbuf / 2) {
    wbuf_paused_ = false;
  }
  std::uint32_t want = 0;
  if (!read_closed_ && !wbuf_paused_ && !window_paused_) want |= EPOLLIN;
  if (wbuf_head_ < wbuf_.size()) want |= EPOLLOUT;
  if (want != interest_) {
    frontend_.loop().modify(fd_, want);
    interest_ = want;
  }
}

void Session::begin_drain() {
  // Stop reading — requests already framed keep their answers, new bytes
  // are ignored — and close once the window answers and flushes.
  read_closed_ = true;
  flush_ready();
  send_buffered();
  update_interest();
  finish_if_drained();
}

void Session::abort_session() {
  if (closing_) return;
  closing_ = true;
  frontend_.defer_close(id_);
}

void Session::finish_if_drained() {
  if (closing_ || !read_closed_) return;
  if (window_.empty() && wbuf_head_ == wbuf_.size()) {
    closing_ = true;
    frontend_.defer_close(id_);
  }
}

}  // namespace treesched::net
