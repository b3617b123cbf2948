#include "cluster/router_connection.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <utility>
#include <vector>

#include "cluster/router.hpp"
#include "obs/event_log.hpp"
#include "obs/trace.hpp"
#include "service/errors.hpp"
#include "util/confine.hpp"

namespace treesched::cluster {

RouterConnection::RouterConnection(Router& router, int fd, std::uint64_t id)
    : router_(router),
      fd_(fd),
      id_(id),
      framer_(router.config().max_line),
      reader_(router.config().max_frame) {
  interest_ = EPOLLIN;
  router_.loop().add(fd_, interest_,
                     [this](std::uint32_t events) { handle_events(events); });
}

RouterConnection::~RouterConnection() {
  // A vanished client's forwards that are still queued router-side are
  // pulled back (freeing the queue slots); ones already on the wire run
  // to completion on their node and the answers are dropped at
  // delivery — same shape as the server cancelling a dead client's
  // queued tickets while running ones finish.
  for (Pending& p : pending_) {
    if (!p.result.has_value() && p.routed && p.node != SIZE_MAX) {
      (void)router_.try_cancel(p.node, id_, p.key);
    }
  }
  router_.loop().remove(fd_);
  ::close(fd_);
}

void RouterConnection::handle_events(std::uint32_t events) {
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
    abort_connection();
    return;
  }
  update_interest();
  finish_if_drained();
}

void RouterConnection::on_readable() {
  while (!read_closed_ && !closing_) {
    if (mode_ == Mode::kBinary) {
      char* dst = reader_.write_ptr();
      const std::size_t capacity = reader_.write_capacity();
      const ssize_t n = ::read(fd_, dst, capacity);
      if (n > 0) {
        reader_.commit(static_cast<std::size_t>(n));
        drain_frames();
        if (closing_) return;
        if (wbuf_.size() - wbuf_head_ > router_.config().max_wbuf) break;
        // Short read = socket drained; skip the would-be-EAGAIN pass
        // (level-triggered epoll re-signals anything that raced in).
        if (static_cast<std::size_t>(n) < capacity) break;
        continue;
      }
      if (n == 0) {
        read_closed_ = true;
        if (reader_.buffered() > 0) {
          ++router_.counters().frames_bad;
          emit_error(std::nullopt, ErrorCode::kBadRequest,
                     "connection half-closed mid-frame (" +
                         std::to_string(reader_.buffered()) +
                         " unframed bytes)");
        }
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      abort_connection();
      return;
    }

    std::array<char, 16384> buf;
    const ssize_t n = ::read(fd_, buf.data(), buf.size());
    if (n > 0) {
      handle_bytes(buf.data(), static_cast<std::size_t>(n));
      if (closing_) return;
      if (wbuf_.size() - wbuf_head_ > router_.config().max_wbuf) break;
      if (static_cast<std::size_t>(n) < buf.size()) break;
      continue;
    }
    if (n == 0) {
      read_closed_ = true;
      if (mode_ == Mode::kDetect && !prelude_.empty()) {
        mode_ = Mode::kBinary;
        ++router_.counters().frames_bad;
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

void RouterConnection::handle_bytes(const char* data, std::size_t len) {
  if (mode_ == Mode::kText) {
    feed_text(data, len);
    return;
  }
  prelude_.append(data, len);
  if (prelude_.front() != net::kFrameMagic.front()) {
    mode_ = Mode::kText;
    const std::string prelude = std::move(prelude_);
    prelude_ = {};
    feed_text(prelude.data(), prelude.size());
    return;
  }
  if (prelude_.size() < net::kFrameMagic.size()) return;
  if (std::string_view(prelude_).substr(0, net::kFrameMagic.size()) !=
      net::kFrameMagic) {
    mode_ = Mode::kBinary;
    ++router_.counters().frames_bad;
    protocol_violation("bad protocol magic");
    return;
  }
  mode_ = Mode::kBinary;
  ++router_.counters().v3_conns;
  if (prelude_.size() > net::kFrameMagic.size()) {
    reader_.feed(prelude_.data() + net::kFrameMagic.size(),
                 prelude_.size() - net::kFrameMagic.size());
  }
  prelude_ = {};
  drain_frames();
}

void RouterConnection::feed_text(const char* data, std::size_t len) {
  framer_.feed(data, len, [this](const net::LineFramer::LineView& line) {
    handle_line(line);
    return !closing_ && !read_closed_;
  });
}

void RouterConnection::handle_line(const net::LineFramer::LineView& line) {
  ++router_.counters().lines;
  RequestView req;
  std::string error;
  switch (net::parse_text_line(line, framer_.max_line(), req, error)) {
    case net::TextLine::kBlank:
      return;
    case net::TextLine::kMalformed:
      ++router_.counters().parse_errors;
      [[fallthrough]];
    case net::TextLine::kOversized:
      push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                         std::move(error));
      return;
    case net::TextLine::kRequest:
      dispatch_request(req, net::TraceContext{});
      flush_ready();
      return;
  }
}

void RouterConnection::drain_frames() {
  net::Frame frame;
  while (!closing_ && !read_closed_) {
    const net::FrameReader::Status status = reader_.next(frame);
    if (status == net::FrameReader::Status::kNeedMore) return;
    if (status == net::FrameReader::Status::kBad) {
      ++router_.counters().frames_bad;
      protocol_violation(reader_.bad_reason());
      return;
    }
    ++router_.counters().frames_in;
    handle_frame(frame);
  }
}

void RouterConnection::handle_frame(const net::Frame& frame) {
  switch (frame.opcode) {
    case net::Opcode::kRequest: {
      net::TraceContext ctx;
      std::string_view rest;
      std::string error;
      if (!net::split_trace_context(frame, ctx, rest, error)) {
        ++router_.counters().frames_bad;
        protocol_violation(std::move(error));
        return;
      }
      handle_request_payload(rest, ctx);
      return;
    }
    case net::Opcode::kBatch: {
      // The trace extension leads the batch payload (before the entry
      // count); every entry of the batch shares the frame's context.
      net::TraceContext ctx;
      std::string_view rest;
      std::string error;
      if (!net::split_trace_context(frame, ctx, rest, error)) {
        ++router_.counters().frames_bad;
        protocol_violation(std::move(error));
        return;
      }
      std::vector<std::string_view> entries;
      if (!net::decode_batch(rest, entries, error)) {
        ++router_.counters().frames_bad;
        protocol_violation(std::move(error));
        return;
      }
      router_.counters().batch_requests += entries.size();
      for (const std::string_view entry : entries) {
        handle_request_payload(entry, ctx);
        if (closing_ || read_closed_) return;
      }
      return;
    }
    case net::Opcode::kCancel: {
      std::uint64_t cancel_id = 0;
      if (!net::decode_cancel(frame, cancel_id)) {
        ++router_.counters().frames_bad;
        protocol_violation("cancel frame payload is not one u64 id");
        return;
      }
      handle_cancel(cancel_id);
      return;
    }
    case net::Opcode::kPing:
    case net::Opcode::kStats: {
      std::optional<std::uint64_t> id;
      if (!net::decode_control_id(frame, id)) {
        ++router_.counters().frames_bad;
        protocol_violation("control frame payload contradicts its flags");
        return;
      }
      if (frame.opcode == net::Opcode::kPing) {
        handle_ping(id);
      } else {
        handle_stats(id);
      }
      return;
    }
    default:
      ++router_.counters().frames_bad;
      protocol_violation("unknown opcode " +
                         std::to_string(static_cast<int>(frame.opcode)));
      return;
  }
}

void RouterConnection::handle_request_payload(std::string_view payload,
                                              const net::TraceContext& ctx) {
  ++router_.counters().lines;
  RequestView req;
  std::string error;
  bool parsed = false;
  {
    obs::ScopedSpan span(obs::Tracer::global(), "net/parse", ctx.trace_id);
    parsed = parse_request_view(payload, req, error);
  }
  if (!parsed) {
    ++router_.counters().parse_errors;
    push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                       std::move(error));
    return;
  }
  dispatch_request(req, ctx);
}

void RouterConnection::dispatch_request(const RequestView& req,
                                        const net::TraceContext& ctx) {
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

void RouterConnection::handle_schedule(const RequestView& req,
                                       const net::TraceContext& ctx) {
  if (req.id && has_pending_tag(*req.id)) {
    push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                       "duplicate id=" + std::to_string(*req.id) +
                           " (a request with this tag is still pending)");
    return;
  }
  if (inflight_ >= router_.config().max_pending) {
    obs::EventLog::global().emit(
        "queue_full", ctx.trace_id,
        {obs::EventLog::Field::u64("conn", id_),
         obs::EventLog::Field::u64("window", router_.config().max_pending)});
    const std::string msg =
        "connection window full (" +
        std::to_string(router_.config().max_pending) +
        " requests in flight); read some answers first";
    if (req.id) {
      emit_error(req.id, ErrorCode::kQueueFull, msg);
    } else {
      push_settled_error(std::nullopt, ErrorCode::kQueueFull, msg);
    }
    return;
  }

  const Result<std::uint64_t, ServiceError> fp =
      router_.fingerprint_spec(req.tree_spec);
  if (!fp.ok()) {
    const ServiceError& err = fp.error();
    if (req.id) {
      emit_error(req.id, err.code, err.message);
    } else {
      push_settled_error(std::nullopt, err.code, err.message);
    }
    return;
  }

  Pending pending;
  pending.key = next_key_++;
  pending.id = req.id;
  pending.priority = static_cast<int>(req.priority);

  // The distributed trace id: a traced client's own id wins (the
  // correlator must be end-to-end); otherwise the router mints one per
  // request while its tracer is on. Zero = untraced, and the forward's
  // frame stays byte-identical to the pre-trace wire format.
  std::uint64_t trace_id = ctx.trace_id;
  if (trace_id == 0 && obs::Tracer::global().enabled()) {
    trace_id = router_.next_trace_id();
  }

  Forward fwd;
  fwd.kind = Forward::Kind::kSchedule;
  fwd.conn_id = id_;
  fwd.key = pending.key;
  fwd.fingerprint = fp.value();
  fwd.retries_left = router_.config().retries;
  fwd.trace_id = trace_id;
  fwd.priority = pending.priority;
  // The canonical forward line: the client's request re-spelled WITHOUT
  // its id= tag — the upstream id is the router's own (appended fresh
  // at each send, so a retry can never collide with the first attempt)
  // and the client's tag is restored at delivery.
  fwd.line.reserve(req.tree_spec.size() + req.algo.size() + 48);
  fwd.line.append(req.tree_spec);
  fwd.line.push_back(' ');
  fwd.line.append(req.algo);
  fwd.line.push_back(' ');
  fwd.line.append(std::to_string(req.p));
  if (req.memory_cap != 0) {
    fwd.line.push_back(' ');
    fwd.line.append(std::to_string(req.memory_cap));
  }
  if (req.priority != Priority::kBatch) {
    fwd.line.append(" priority=");
    fwd.line.append(to_string(req.priority));
  }
  if (req.deadline_ms > 0.0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " deadline_ms=%.17g", req.deadline_ms);
    fwd.line.append(buf);
  }

  const Result<std::size_t, ServiceError> routed =
      router_.route(std::move(fwd));
  if (!routed.ok()) {
    const ServiceError& err = routed.error();
    if (err.code == ErrorCode::kQueueFull) {
      ++router_.counters().queue_full;
      obs::EventLog::global().emit(
          "queue_full", trace_id,
          {obs::EventLog::Field::u64("conn", id_),
           obs::EventLog::Field::str("scope", "cluster")});
    } else {
      ++router_.counters().node_unavailable;
    }
    if (req.id) {
      emit_error(req.id, err.code, err.message);
    } else {
      push_settled_error(std::nullopt, err.code, err.message);
    }
    return;
  }
  pending.node = routed.value();
  pending.routed = true;
  ++inflight_;
  pending_.push_back(std::move(pending));
}

void RouterConnection::handle_cancel(std::uint64_t cancel_id) {
  Pending* target = nullptr;
  for (Pending& p : pending_) {
    if (p.id && *p.id == cancel_id) {
      target = &p;
      break;
    }
  }
  if (!target) {
    push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                       "cancel id=" + std::to_string(cancel_id) +
                           ": no pending request with this id");
    return;
  }
  // Cancels stop at the router: a forward still queued here is removed
  // and answered `cancelled`; one already on the backend's wire is NOT
  // chased (a failed remote cancel acks untagged, which cannot be
  // attributed on an upstream connection multiplexing many clients).
  // The answer will arrive and be delivered normally — same observable
  // contract as the server's "already running" case.
  if (!target->result.has_value() && target->routed &&
      target->node != SIZE_MAX &&
      router_.try_cancel(target->node, id_, target->key)) {
    ResponseLine line;
    line.ok = false;
    line.id = target->id;
    line.code = ErrorCode::kCancelled;
    line.message = "cancelled while queued in the router";
    target->result = std::move(line);
    target->routed = false;
    --inflight_;
    return;  // the caller's flush_ready emits it
  }
  push_settled_error(std::nullopt, ErrorCode::kBadRequest,
                     "cancel id=" + std::to_string(cancel_id) +
                         ": request already forwarded or answered");
}

void RouterConnection::handle_ping(std::optional<std::uint64_t> id) {
  // Answered by the router itself: ping probes THIS hop. Whether the
  // backends are up is the stats verb's business (nodes_up).
  ResponseLine line;
  line.kind = ResponseLine::Kind::kPong;
  line.ok = true;
  line.id = id;
  send_response(line);
}

void RouterConnection::handle_stats(std::optional<std::uint64_t> id) {
  ResponseLine line;
  line.kind = ResponseLine::Kind::kStats;
  line.ok = true;
  line.id = id;
  line.stats = router_.stats_pairs();
  send_response(line);
}

void RouterConnection::handle_trace(const RequestView& req) {
  // Cluster-wide trace control: start/stop drive the router's own span
  // recorder AND broadcast to every live backend, `pull` hands this
  // process's ring out in wire form, and `dump` produces one MERGED
  // Chrome timeline across the router and every live node.
  obs::Tracer& tracer = obs::Tracer::global();
  if (req.trace_action == "start") {
    tracer.enable();
    router_.broadcast_trace_ctl("trace start");
  } else if (req.trace_action == "stop") {
    tracer.disable();
    router_.broadcast_trace_ctl("trace stop");
  } else if (req.trace_action == "pull") {
    // The router can itself be a backend of a bigger router.
    ResponseLine line;
    line.kind = ResponseLine::Kind::kTrace;
    line.ok = true;
    line.id = req.id;
    obs::encode_span_pairs(tracer.snapshot(), obs::kTracePullMaxSpans,
                           line.stats);
    send_response(line);
    return;
  } else if (req.trace_action == "dump") {
    const std::string& trace_dir = router_.config().trace_dir;
    if (trace_dir.empty()) {
      emit_error(req.id, ErrorCode::kBadRequest,
                 "trace dump is disabled on this router "
                 "(start it with --trace-dir to allow dumps)");
      return;
    }
    std::string resolved;
    if (!confine_relative_path(trace_dir, req.trace_path, resolved)) {
      emit_error(req.id, ErrorCode::kBadRequest,
                 "trace dump path must be a relative name inside the "
                 "router's trace directory (no absolute paths, no \"..\")");
      return;
    }
    // The merged dump settles asynchronously (it waits on every live
    // node's `trace pull`), so it occupies a window entry like a
    // routed request: push it FIRST, then start the dump — with no
    // live backend the settle happens synchronously inside the call
    // and must already find the entry.
    Pending pending;
    pending.key = next_key_++;
    pending.id = req.id;
    const std::uint64_t key = pending.key;
    pending_.push_back(std::move(pending));
    std::string error;
    if (!router_.start_trace_dump(id_, key, std::move(resolved), error)) {
      pending_.pop_back();
      emit_error(req.id, ErrorCode::kBadRequest, error);
    }
    return;
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
    // Per-recording-thread overwrite counts plus, per backend node, the
    // `trace pull`s lost to node deaths — what a truncated or partial
    // merged dump traces back to.
    for (const auto& [tid, drops] : tracer.dropped_by_ring()) {
      line.stats.emplace_back("ring" + std::to_string(tid) + "_dropped",
                              drops);
    }
    for (std::size_t i = 0; i < router_.config().nodes.size(); ++i) {
      line.stats.emplace_back(
          "node" + std::to_string(i) + "_pull_failures",
          router_.trace_pull_failures(i));
    }
  }
  send_response(line);
}

void RouterConnection::deliver(std::uint64_t key, ResponseLine&& resp) {
  for (Pending& p : pending_) {
    if (p.key != key) continue;
    if (!p.result.has_value()) {
      // Schedule settles feed the router's windowed SLO gauges; the
      // window entries a dump or a synthesized error ride carry no
      // class and stay out of the ratio.
      if (p.priority >= 0) router_.note_settled(p.priority, resp.ok);
      // The id remap: whatever uid rode the upstream wire is gone; the
      // client sees its own tag (or none, keeping submission order).
      resp.id = p.id;
      p.result = std::move(resp);
      if (p.routed) {
        p.routed = false;
        --inflight_;
      }
    }
    break;
  }
  // Coalesced output: many answers can land in one upstream read batch
  // (pipelined clients, batch frames); order and write them ONCE at the
  // end of the dispatch batch instead of scanning the window and paying
  // a send() syscall per answer.
  schedule_flush();
}

void RouterConnection::schedule_flush() {
  if (flush_scheduled_ || closing_) return;
  flush_scheduled_ = true;
  // The connection may be destroyed before the deferred call runs (an
  // abort posts its removal), so the closure holds the id, not `this`,
  // and re-resolves through the router's live-connection map.
  Router& router = router_;
  const std::uint64_t conn_id = id_;
  router.loop().defer([&router, conn_id] {
    const auto it = router.conns_.find(conn_id);
    if (it != router.conns_.end()) it->second->flush_deferred();
  });
}

void RouterConnection::flush_deferred() {
  flush_scheduled_ = false;
  if (closing_) return;
  flush_ready();
  send_buffered();
  if (closing_) return;
  update_interest();
  finish_if_drained();
}

void RouterConnection::note_routed(std::uint64_t key, std::size_t node) {
  for (Pending& p : pending_) {
    if (p.key == key) {
      p.node = node;
      return;
    }
  }
}

void RouterConnection::flush_ready() {
  while (!pending_.empty() && pending_.front().result.has_value()) {
    send_response(*pending_.front().result);
    pending_.pop_front();
  }
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->id && it->result.has_value()) {
      send_response(*it->result);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void RouterConnection::emit_error(std::optional<std::uint64_t> id,
                                  ErrorCode code,
                                  const std::string& message) {
  ResponseLine line;
  line.ok = false;
  line.id = id;
  line.code = code;
  line.message = message;
  send_response(line);
}

void RouterConnection::push_settled_error(std::optional<std::uint64_t> id,
                                          ErrorCode code,
                                          std::string message) {
  Pending pending;
  pending.key = next_key_++;
  pending.id = id;
  ResponseLine line;
  line.ok = false;
  line.id = id;
  line.code = code;
  line.message = std::move(message);
  pending.result = std::move(line);
  pending_.push_back(std::move(pending));
}

void RouterConnection::protocol_violation(std::string message) {
  emit_error(std::nullopt, ErrorCode::kBadRequest, message);
  read_closed_ = true;
}

bool RouterConnection::has_pending_tag(std::uint64_t tag) const {
  for (const Pending& p : pending_) {
    if (p.id && *p.id == tag) return true;
  }
  return false;
}

void RouterConnection::send_response(const ResponseLine& line) {
  if (mode_ == Mode::kBinary) {
    net::FrameWriter writer(wbuf_);
    writer.response(line);
  } else {
    append_response_line(wbuf_, line);
    wbuf_.push_back('\n');
  }
}

void RouterConnection::send_buffered() {
  while (wbuf_head_ < wbuf_.size()) {
    const ssize_t n =
        ::send(fd_, wbuf_.data() + wbuf_head_, wbuf_.size() - wbuf_head_,
               MSG_NOSIGNAL);
    if (n > 0) {
      wbuf_head_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
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
}

void RouterConnection::update_interest() {
  if (closing_) return;
  const std::size_t buffered = wbuf_.size() - wbuf_head_;
  if (buffered > router_.config().max_wbuf) {
    paused_reads_ = true;
  } else if (buffered <= router_.config().max_wbuf / 2) {
    paused_reads_ = false;
  }
  std::uint32_t want = 0;
  if (!read_closed_ && !paused_reads_) want |= EPOLLIN;
  if (wbuf_head_ < wbuf_.size()) want |= EPOLLOUT;
  if (want != interest_) {
    router_.loop().modify(fd_, want);
    interest_ = want;
  }
}

void RouterConnection::begin_drain() {
  read_closed_ = true;
  flush_ready();
  send_buffered();
  update_interest();
  finish_if_drained();
}

void RouterConnection::abort_connection() {
  if (closing_) return;
  closing_ = true;
  router_.defer_close(id_);
}

void RouterConnection::finish_if_drained() {
  if (closing_ || !read_closed_) return;
  if (pending_.empty() && wbuf_head_ == wbuf_.size()) {
    closing_ = true;
    router_.defer_close(id_);
  }
}

}  // namespace treesched::cluster
