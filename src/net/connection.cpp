#include "net/connection.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <fstream>
#include <utility>
#include <vector>

#include "net/server.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/errors.hpp"
#include "service/service.hpp"
#include "util/confine.hpp"

namespace treesched::net {

namespace {

/// Resolves a client-supplied `trace dump=` path against the configured
/// trace directory. The client names a file the SERVER will write, so
/// the path may only be a plain relative name inside trace_dir —
/// otherwise any network client could create or truncate any file the
/// server user can write. Shared with the `file:` tree-spec confinement
/// (Server::intern_spec) via util/confine.
bool resolve_trace_path(const std::string& trace_dir, std::string_view path,
                        std::string& resolved) {
  return confine_relative_path(trace_dir, path, resolved);
}

}  // namespace

Connection::Connection(Server& server, int fd, std::uint64_t id)
    : server_(server),
      fd_(fd),
      id_(id),
      framer_(server.config().max_line),
      reader_(server.config().max_frame) {
  // The accept moment doubles as the first burst stamp, so a request
  // that somehow precedes the first readable event still has one.
  burst_ns_ = obs::now_ns();
  interest_ = EPOLLIN;
  server_.loop().add(fd_, interest_,
                     [this](std::uint32_t events) { handle_events(events); });
}

Connection::~Connection() {
  // A vanished client's queued work must not occupy a worker: cancel
  // whatever is still cancellable. Tickets a worker already picked up
  // run to completion; their settlements post to the loop, find this
  // connection gone, and are dropped (the server's outstanding-ticket
  // count is kept by Server::ticket_settled either way).
  for (Pending& p : pending_) {
    if (!p.result.has_value() && p.ticket.valid()) (void)p.ticket.cancel();
  }
  server_.loop().remove(fd_);
  ::close(fd_);
}

void Connection::handle_events(std::uint32_t events) {
  if (events & EPOLLERR) {
    abort_connection();
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
    abort_connection();
    return;
  }
  update_interest();
  finish_if_drained();
}

void Connection::on_readable() {
  // One clock read per readable event stamps accept/parse for every
  // request framed out of this burst — a 16-deep batch frame costs one
  // now_ns(), not sixteen, which keeps the stage timing inside the
  // fast path's overhead budget.
  burst_ns_ = obs::now_ns();
  while (!read_closed_ && !closing_) {
    if (mode_ == Mode::kBinary) {
      // Zero-copy read path: straight into the FrameReader's buffer —
      // request payloads are parsed in place, never copied into an
      // intermediate line buffer.
      char* dst = reader_.write_ptr();
      const ssize_t n = ::read(fd_, dst, reader_.write_capacity());
      if (n > 0) {
        reader_.commit(static_cast<std::size_t>(n));
        drain_frames();
        if (closing_) return;
        if (wbuf_.size() - wbuf_head_ > server_.config().max_wbuf) break;
        continue;
      }
      if (n == 0) {
        read_closed_ = true;
        if (reader_.buffered() > 0) {
          // Half-close truncating a frame: the tail can never complete.
          ++server_.counters().frames_bad;
          emit_error(std::nullopt, ErrorCode::kBadRequest,
                     "connection half-closed mid-frame (" +
                         std::to_string(reader_.buffered()) +
                         " unframed bytes)");
        }
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      abort_connection();  // ECONNRESET and friends
      return;
    }

    std::array<char, 16384> buf;
    const ssize_t n = ::read(fd_, buf.data(), buf.size());
    if (n > 0) {
      handle_bytes(buf.data(), static_cast<std::size_t>(n));
      if (closing_) return;
      // Backpressure: a client that outpaces its own reading stops
      // being read until it drains us below the low watermark.
      if (wbuf_.size() - wbuf_head_ > server_.config().max_wbuf) break;
      continue;
    }
    if (n == 0) {
      // Orderly EOF (half-close): the client said "no more requests,
      // now answer me". A final unterminated line still counts — the
      // same grace std::getline gives the stdin front-end.
      read_closed_ = true;
      if (mode_ == Mode::kDetect && !prelude_.empty()) {
        // The client greeted with 0xB3 (anything else resolves to text
        // immediately) but hung up before completing the magic.
        mode_ = Mode::kBinary;
        ++server_.counters().frames_bad;
        emit_error(std::nullopt, ErrorCode::kBadRequest,
                   "connection closed inside the protocol magic");
      } else if (mode_ != Mode::kBinary) {
        if (const auto last = framer_.finish()) {
          handle_line({last->text, last->overflow, last->wire_bytes});
        }
      }
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    abort_connection();
    return;
  }
  flush_ready();
  send_buffered();
}

void Connection::handle_bytes(const char* data, std::size_t len) {
  if (mode_ == Mode::kText) {
    feed_text(data, len);
    return;
  }
  // kDetect: buffer until the first byte (and, for 0xB3, the full
  // 4-byte magic) resolves the protocol.
  prelude_.append(data, len);
  if (prelude_.front() != kFrameMagic.front()) {
    // 0xB3 is not printable ASCII, so no v2 text line starts with it:
    // this connection is text. Replay the prelude through the framer.
    mode_ = Mode::kText;
    note_detected();
    const std::string prelude = std::move(prelude_);
    prelude_ = {};
    feed_text(prelude.data(), prelude.size());
    return;
  }
  if (prelude_.size() < kFrameMagic.size()) return;  // magic still partial
  if (std::string_view(prelude_).substr(0, kFrameMagic.size()) !=
      kFrameMagic) {
    mode_ = Mode::kBinary;  // they spoke 0xB3: answer in kind, then close
    ++server_.counters().frames_bad;
    protocol_violation("bad protocol magic");
    return;
  }
  mode_ = Mode::kBinary;
  ++server_.counters().v3_conns;
  note_detected();
  if (prelude_.size() > kFrameMagic.size()) {
    reader_.feed(prelude_.data() + kFrameMagic.size(),
                 prelude_.size() - kFrameMagic.size());
  }
  prelude_ = {};
  drain_frames();
}

void Connection::note_detected() {
  // One span per connection marking protocol negotiation (burst start
  // to resolution) — the first hop of a cross-tier trace timeline.
  obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.enabled()) return;
  tracer.record("net/detect", burst_ns_, obs::now_ns() - burst_ns_, id_);
}

void Connection::feed_text(const char* data, std::size_t len) {
  framer_.feed(data, len, [this](const LineFramer::LineView& line) {
    handle_line(line);
    return !closing_ && !read_closed_;
  });
}

void Connection::handle_line(const LineFramer::LineView& line) {
  ++server_.counters().lines;
  RequestView req;
  std::string error;
  switch (parse_text_line(line, framer_.max_line(), req, error)) {
    case TextLine::kBlank:
      return;
    case TextLine::kMalformed:
      ++server_.counters().parse_errors;
      [[fallthrough]];
    case TextLine::kOversized:
      // Untagged: a positional client correlates responses by line, so
      // the error must keep its place in the stream.
      push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                         std::move(error));
      return;
    case TextLine::kRequest:
      dispatch_request(req, TraceContext{});
      flush_ready();
      return;
  }
}

void Connection::drain_frames() {
  Frame frame;
  while (!closing_ && !read_closed_) {
    const FrameReader::Status status = reader_.next(frame);
    if (status == FrameReader::Status::kNeedMore) return;
    if (status == FrameReader::Status::kBad) {
      ++server_.counters().frames_bad;
      protocol_violation(reader_.bad_reason());
      return;
    }
    ++server_.counters().frames_in;
    handle_frame(frame);
  }
}

void Connection::handle_frame(const Frame& frame) {
  switch (frame.opcode) {
    case Opcode::kRequest: {
      TraceContext ctx;
      std::string_view rest;
      std::string error;
      if (!split_trace_context(frame, ctx, rest, error)) {
        ++server_.counters().frames_bad;
        protocol_violation(std::move(error));
        return;
      }
      handle_request_payload(rest, ctx);
      return;
    }
    case Opcode::kBatch: {
      // The trace extension leads the batch payload (before the entry
      // count); every entry of the batch shares the frame's context.
      TraceContext ctx;
      std::string_view rest;
      std::string error;
      if (!split_trace_context(frame, ctx, rest, error)) {
        ++server_.counters().frames_bad;
        protocol_violation(std::move(error));
        return;
      }
      std::vector<std::string_view> entries;
      if (!decode_batch(rest, entries, error)) {
        ++server_.counters().frames_bad;
        protocol_violation(std::move(error));
        return;
      }
      server_.counters().batch_requests += entries.size();
      // One frame, many pipelined requests: every answer lands in
      // wbuf_ and the whole batch flushes in a coalesced write.
      for (const std::string_view entry : entries) {
        handle_request_payload(entry, ctx);
        if (closing_ || read_closed_) return;
      }
      return;
    }
    case Opcode::kCancel: {
      std::uint64_t cancel_id = 0;
      if (!decode_cancel(frame, cancel_id)) {
        ++server_.counters().frames_bad;
        protocol_violation("cancel frame payload is not one u64 id");
        return;
      }
      handle_cancel(cancel_id);
      return;
    }
    case Opcode::kPing:
    case Opcode::kStats: {
      std::optional<std::uint64_t> id;
      if (!decode_control_id(frame, id)) {
        ++server_.counters().frames_bad;
        protocol_violation("control frame payload contradicts its flags");
        return;
      }
      if (frame.opcode == Opcode::kPing) {
        handle_ping(id);
      } else {
        handle_stats(id);
      }
      return;
    }
    default:
      ++server_.counters().frames_bad;
      protocol_violation("unknown opcode " +
                         std::to_string(static_cast<int>(frame.opcode)));
      return;
  }
}

void Connection::handle_request_payload(std::string_view payload,
                                        const TraceContext& ctx) {
  ++server_.counters().lines;
  RequestView req;
  std::string error;
  bool parsed;
  {
    // The parse span carries the propagated trace id, so a cross-tier
    // timeline shows where the backend spent its grammar time.
    obs::ScopedSpan span(obs::Tracer::global(), "net/parse", ctx.trace_id);
    parsed = parse_request_view(payload, req, error);
  }
  if (!parsed) {
    // A grammar error is the client's problem, not a protocol
    // violation: answer bad_request in stream order and keep going,
    // exactly like a bad text line.
    ++server_.counters().parse_errors;
    push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                       std::move(error));
    return;
  }
  dispatch_request(req, ctx);
}

void Connection::dispatch_request(const RequestView& req,
                                  const TraceContext& ctx) {
  switch (req.kind) {
    case RequestLine::Kind::kCancel:
      handle_cancel(*req.id);
      break;
    case RequestLine::Kind::kPing:
      handle_ping(req.id);
      break;
    case RequestLine::Kind::kStats:
      handle_stats(req.id);
      break;
    case RequestLine::Kind::kTrace:
      handle_trace(req);
      break;
    case RequestLine::Kind::kSchedule:
      handle_schedule(req, ctx);
      break;
  }
}

void Connection::handle_schedule(const RequestView& req,
                                 const TraceContext& ctx) {
  if (req.id && has_pending_tag(*req.id)) {
    push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                       "duplicate id=" + std::to_string(*req.id) +
                           " (a request with this tag is still pending)");
    return;
  }
  if (inflight_ >= server_.config().max_pending) {
    // The per-connection admission bound: typed, immediate, and cheap —
    // the service never sees the request.
    const std::string msg =
        "connection window full (" +
        std::to_string(server_.config().max_pending) +
        " requests in flight); read some answers first";
    obs::EventLog::global().emit(
        "queue_full", ctx.trace_id,
        {obs::EventLog::Field::u64("conn", id_),
         obs::EventLog::Field::u64("window",
                                   server_.config().max_pending)});
    if (req.id) {
      emit_error(req.id, ErrorCode::kQueueFull, msg);
    } else {
      push_settled_error(std::nullopt, ErrorCode::kQueueFull, msg);
    }
    return;
  }

  Pending pending;
  pending.key = next_key_++;
  pending.id = req.id;
  pending.trace_id = ctx.trace_id;
  // The single owned copy of the request's strings: everything upstream
  // of this point was views into the read buffer.
  pending.algo = std::string(req.algo);
  pending.p = req.p;
  pending.priority = req.priority;
  Result<TreeHandle, ServiceError> handle = server_.intern_spec(req.tree_spec);
  if (!handle.ok()) {
    // Answer in place for tagged requests, in order for untagged ones.
    const ServiceError& err = handle.error();
    if (req.id) {
      emit_error(req.id, err.code, err.message);
    } else {
      push_settled_error(req.id, err.code, err.message);
    }
    return;
  }
  ScheduleRequest sreq;
  sreq.stamps.stamp(obs::Stage::kAccept, burst_ns_);
  // Parse is stamped at burst granularity too: sub-burst parse time is
  // noise at the histograms' microsecond resolution, and sharing the
  // stamp keeps the hot path at one clock read per read burst.
  sreq.stamps.stamp(obs::Stage::kParse, burst_ns_);
  sreq.tree = handle.value();
  pending.tree_hash = sreq.tree.hash;
  pending.n = sreq.tree->size();
  sreq.algo = pending.algo;
  sreq.p = req.p;
  sreq.memory_cap = req.memory_cap;
  sreq.priority = req.priority;
  sreq.deadline_ms = req.deadline_ms;

  // Cache-hit fast path, right here on the I/O thread: a hit settles
  // the window entry immediately — no ticket, no queue, no pool job, no
  // eventfd round trip — and flushes with the read burst, so a cache-hot
  // batch frame answers in one coalesced write. Ordering is preserved
  // because the answer still rides the pending window.
  if (auto hit = server_.service().try_cached(sreq)) {
    pending.result = ServiceResult(std::move(*hit));
    pending_.push_back(std::move(pending));
    return;
  }

  server_.note_submitted();
  Ticket ticket = server_.service().submit(std::move(sreq));
  const std::uint64_t key = pending.key;
  pending.ticket = std::move(ticket);
  ++inflight_;
  Ticket& stored = pending_.emplace_back(std::move(pending)).ticket;
  // Attached after the entry is in the window: an already-settled
  // ticket (service-level queue_full) fires inline, posts, and the
  // posted deliver() finds its entry.
  stored.on_complete(
      [srv = &server_, cid = id_, key](const ServiceResult& result) {
        srv->ticket_settled(cid, key, result);
      });
}

void Connection::handle_cancel(std::uint64_t cancel_id) {
  Pending* target = nullptr;
  for (Pending& p : pending_) {
    if (p.id && *p.id == cancel_id) {
      target = &p;
      break;
    }
  }
  if (!target) {
    // Untagged ack (a late cancel racing the answer must not put a
    // second id=N response on the wire), held in stream order.
    push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                       "cancel id=" + std::to_string(cancel_id) +
                           ": no pending request with this id");
    return;
  }
  if (!target->ticket.valid() || target->result.has_value() ||
      !target->ticket.cancel()) {
    push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                       "cancel id=" + std::to_string(cancel_id) +
                           ": request already running or answered");
  }
  // On success the ticket settled with code=cancelled; its completion
  // is already posted to the loop and deliver() emits the answer.
}

void Connection::handle_ping(std::optional<std::uint64_t> id) {
  // Health checks bypass the pending window: a server drowning in Bulk
  // work still answers its load balancer immediately.
  ResponseLine line;
  line.kind = ResponseLine::Kind::kPong;
  line.ok = true;
  line.id = id;
  send_response(line);
}

void Connection::handle_stats(std::optional<std::uint64_t> id) {
  const ServerCounters& sc = server_.counters();
  ResponseLine line;
  line.kind = ResponseLine::Kind::kStats;
  line.ok = true;
  line.id = id;
  // Transport-specific counters first, then the shared service
  // vocabulary (service_stats_pairs keeps both front-ends aligned).
  line.stats = {
      {"conns", server_.conns_.size()},
      {"accepted", sc.accepted},
      {"rejected_conns", sc.rejected_conns},
      {"lines", sc.lines},
      {"submitted", sc.submitted},
      {"outstanding", server_.outstanding_},
      {"v3_conns", sc.v3_conns},
      {"frames_in", sc.frames_in},
      {"frames_bad", sc.frames_bad},
      {"batch_requests", sc.batch_requests},
      {"parse_errors", sc.parse_errors},
  };
  for (auto& pair : service_stats_pairs(server_.service())) {
    line.stats.push_back(std::move(pair));
  }
  send_response(line);
}

void Connection::handle_trace(const RequestView& req) {
  // Like ping/stats, trace answers immediately, out of band of the
  // pending window. The tracer is process-wide: every connection (and
  // the stdin front-end) drives the same one, which is the point — one
  // client can turn tracing on, load can come from anywhere, and a dump
  // sees it all.
  obs::Tracer& tracer = obs::Tracer::global();
  std::uint64_t written = 0;
  bool dumped = false;
  if (req.trace_action == "start") {
    tracer.enable();
  } else if (req.trace_action == "stop") {
    tracer.disable();
  } else if (req.trace_action == "pull") {
    // The spans themselves, encoded as stats pairs — the primitive the
    // cluster router's merged cross-tier dump is built on. Bounded
    // (kTracePullMaxSpans, latest kept) so the reply frame always fits
    // the default frame budget.
    ResponseLine line;
    line.kind = ResponseLine::Kind::kTrace;
    line.ok = true;
    line.id = req.id;
    obs::encode_span_pairs(tracer.snapshot(), obs::kTracePullMaxSpans,
                           line.stats);
    send_response(line);
    return;
  } else if (req.trace_action == "dump") {
    // Dumps write a server-side file, so they are off unless the
    // operator opted in with a trace directory, and the client's path
    // is confined to it (see resolve_trace_path).
    const std::string& trace_dir = server_.config().trace_dir;
    if (trace_dir.empty()) {
      emit_error(req.id, ErrorCode::kBadRequest,
                 "trace dump is disabled on this server "
                 "(start it with --trace-dir to allow dumps)");
      return;
    }
    std::string resolved;
    if (!resolve_trace_path(trace_dir, req.trace_path, resolved)) {
      emit_error(req.id, ErrorCode::kBadRequest,
                 "trace dump path must be a relative name inside the "
                 "server's trace directory (no absolute paths, no \"..\")");
      return;
    }
    // The write runs synchronously on the I/O thread and stalls every
    // connection (and the metrics endpoint) for its duration. Accepted
    // deliberately: the dump is bounded (4096 spans per thread ring),
    // and it only happens when the operator configured a trace
    // directory and asked for a dump — a diagnostic moment, not a
    // serving-path operation.
    std::ofstream out{resolved};
    if (!out) {
      emit_error(req.id, ErrorCode::kBadRequest,
                 "cannot open trace path \"" + resolved + "\" for writing");
      return;
    }
    written = tracer.write_chrome_trace(out);
    if (!out) {
      emit_error(req.id, ErrorCode::kBadRequest,
                 "short write dumping trace to \"" + resolved + "\"");
      return;
    }
    dumped = true;
  }  // "status" mutates nothing
  ResponseLine line;
  line.kind = ResponseLine::Kind::kTrace;
  line.ok = true;
  line.id = req.id;
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
  }
  if (dumped) line.stats.emplace_back("written", written);
  send_response(line);
}

void Connection::deliver(std::uint64_t key, const ServiceResult& result) {
  for (Pending& p : pending_) {
    if (p.key != key) continue;
    if (!p.result.has_value()) {
      p.result = result;
      --inflight_;
    }
    break;
  }
  flush_ready();
  send_buffered();
  update_interest();
  finish_if_drained();
}

void Connection::flush_ready() {
  emit_now_ns_ = 0;  // one lazy clock read serves the whole emit burst
  // The settled in-order prefix answers first…
  while (!pending_.empty() && pending_.front().result.has_value()) {
    emit(pending_.front(), *pending_.front().result);
    pending_.pop_front();
  }
  // …then any settled id=-tagged entry anywhere in the window (the tag
  // makes an out-of-order answer attributable).
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->id && it->result.has_value()) {
      emit(*it, *it->result);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void Connection::emit(const Pending& pending, const ServiceResult& result) {
  ResponseLine line;
  line.id = pending.id;
  if (result.ok()) {
    const ScheduleResponse& resp = result.value();
    line.ok = true;
    line.tree_hash = pending.tree_hash;
    line.n = pending.n;
    line.algo = pending.algo;
    line.p = pending.p;
    line.makespan = resp.makespan;
    line.peak_memory = resp.peak_memory;
    line.cache_hit = resp.cache_hit;
    line.priority = pending.priority;
  } else {
    line.ok = false;
    line.code = result.error().code;
    line.message = result.error().message;
  }
  send_response(line);
  server_.note_response(static_cast<int>(pending.priority), result.ok());
  if (!result.ok() || !result.value().stamps.has(obs::Stage::kAccept)) {
    // Errors and requests born before stamping (in-process callers'
    // cached entries) carry no stamps worth a histogram.
    return;
  }
  if (emit_now_ns_ == 0) emit_now_ns_ = obs::now_ns();
  FlushMark mark;
  mark.timing.stamps = result.value().stamps;
  mark.timing.stamps.stamp(obs::Stage::kSerialize, emit_now_ns_);
  mark.timing.priority = pending.priority;
  mark.timing.id = pending.id;
  mark.timing.algo = pending.algo;
  mark.timing.cache_hit = result.value().cache_hit;
  mark.timing.trace_id = pending.trace_id;
  // The response is flushed once this many bytes have left the process.
  mark.target = cum_sent_ + (wbuf_.size() - wbuf_head_);
  flush_q_.push_back(std::move(mark));
}

void Connection::emit_error(std::optional<std::uint64_t> id, ErrorCode code,
                            const std::string& message) {
  ResponseLine line;
  line.ok = false;
  line.id = id;
  line.code = code;
  line.message = message;
  send_response(line);
  server_.note_response(kPriorityClasses, false);
}

void Connection::push_settled_error(std::optional<std::uint64_t> id,
                                    ErrorCode code, std::string message) {
  Pending pending;
  pending.key = next_key_++;
  pending.id = id;
  pending.result =
      ServiceResult(ServiceError{code, std::move(message), nullptr});
  pending_.push_back(std::move(pending));
}

void Connection::protocol_violation(std::string message) {
  // Unlike a bad text line (where the next newline resynchronizes),
  // framing is unrecoverable after a bad frame: answer once, stop
  // reading, let the settled window flush, then close. The hostile
  // bytes past the violation are never examined.
  emit_error(std::nullopt, ErrorCode::kBadRequest, message);
  read_closed_ = true;
}

bool Connection::has_pending_tag(std::uint64_t tag) const {
  for (const Pending& p : pending_) {
    if (p.id && *p.id == tag) return true;
  }
  return false;
}

void Connection::send_response(const ResponseLine& line) {
  if (mode_ == Mode::kBinary) {
    FrameWriter writer(wbuf_);
    writer.response(line);
  } else {
    append_response_line(wbuf_, line);
    wbuf_.push_back('\n');
  }
}

void Connection::send_buffered() {
  while (wbuf_head_ < wbuf_.size()) {
    const ssize_t n =
        ::send(fd_, wbuf_.data() + wbuf_head_, wbuf_.size() - wbuf_head_,
               MSG_NOSIGNAL);
    if (n > 0) {
      wbuf_head_ += static_cast<std::size_t>(n);
      cum_sent_ += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EPIPE/ECONNRESET: the client is gone; buffered answers are
    // undeliverable and queued work is cancelled.
    abort_connection();
    return;
  }
  if (wbuf_head_ == wbuf_.size()) {
    wbuf_.clear();
    wbuf_head_ = 0;
  } else if (wbuf_head_ > 65536 && wbuf_head_ * 2 > wbuf_.size()) {
    wbuf_.erase(0, wbuf_head_);
    wbuf_head_ = 0;
  }
  // Every response whose last byte just reached the kernel is flushed:
  // stamp once (the whole drained batch shares one clock read) and hand
  // the stage record to the server's histograms and slow log.
  if (!flush_q_.empty() && cum_sent_ >= flush_q_.front().target) {
    const std::uint64_t now = obs::now_ns();
    do {
      FlushMark& mark = flush_q_.front();
      mark.timing.stamps.stamp(obs::Stage::kFlush, now);
      server_.record_flushed(mark.timing);
      flush_q_.pop_front();
    } while (!flush_q_.empty() && cum_sent_ >= flush_q_.front().target);
  }
}

void Connection::update_interest() {
  if (closing_) return;
  // Hysteresis: stop reading past the high watermark, resume only once
  // the client has drained us below half — no flapping per send cycle.
  const std::size_t buffered = wbuf_.size() - wbuf_head_;
  if (buffered > server_.config().max_wbuf) {
    paused_reads_ = true;
  } else if (buffered <= server_.config().max_wbuf / 2) {
    paused_reads_ = false;
  }
  std::uint32_t want = 0;
  if (!read_closed_ && !paused_reads_) want |= EPOLLIN;
  if (wbuf_head_ < wbuf_.size()) want |= EPOLLOUT;
  if (want != interest_) {
    server_.loop().modify(fd_, want);
    interest_ = want;
  }
}

void Connection::begin_drain() {
  // Stop reading — requests already framed keep their answers, new
  // bytes are ignored — and close once the window answers and flushes.
  read_closed_ = true;
  flush_ready();
  send_buffered();
  update_interest();
  finish_if_drained();
}

void Connection::abort_connection() {
  if (closing_) return;
  closing_ = true;
  server_.defer_close(id_);
}

void Connection::finish_if_drained() {
  if (closing_ || !read_closed_) return;
  if (pending_.empty() && wbuf_head_ == wbuf_.size()) {
    closing_ = true;
    server_.defer_close(id_);
  }
}

}  // namespace treesched::net
