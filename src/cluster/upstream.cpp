#include "cluster/upstream.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "cluster/router.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace treesched::cluster {

namespace {

std::uint64_t ms_to_ns(double ms) {
  return ms <= 0.0 ? 0 : static_cast<std::uint64_t>(ms * 1e6);
}

}  // namespace

Upstream::Upstream(Router& router, std::size_t index, std::string host,
                   std::uint16_t port)
    : router_(router),
      index_(index),
      host_(std::move(host)),
      port_(port),
      name_(host_ + ":" + std::to_string(port_)),
      reader_(net::kDefaultMaxFrame) {}

Upstream::~Upstream() { close_fd(); }

bool Upstream::routable() const {
  return state_ != State::kDown &&
         queue_.size() < router_.config().upstream_queue;
}

void Upstream::close_fd() {
  if (fd_ < 0) return;
  router_.loop().remove(fd_);
  ::close(fd_);
  fd_ = -1;
  interest_ = 0;
}

void Upstream::try_connect(std::uint64_t now_ns) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    next_connect_ns_ = now_ns + ms_to_ns(router_.config().reconnect_backoff_ms);
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    next_connect_ns_ = now_ns + ms_to_ns(router_.config().reconnect_backoff_ms);
    return;
  }
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int rc =
      ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd_);
    fd_ = -1;
    next_connect_ns_ = now_ns + ms_to_ns(router_.config().reconnect_backoff_ms);
    return;
  }
  connect_started_ns_ = now_ns;
  // EPOLLOUT signals connect completion; EPOLLIN covers an immediate
  // same-stack success that already has bytes (loopback can).
  interest_ = EPOLLIN | EPOLLOUT;
  router_.loop().add(fd_, interest_,
                     [this](std::uint32_t events) { handle_events(events); });
  if (rc == 0) {
    on_connected();
  } else {
    state_ = State::kConnecting;
  }
}

void Upstream::on_connected() {
  state_ = State::kUp;
  ++router_.counters().connects;
  last_heard_ns_ = obs::now_ns();
  ping_sent_ns_ = 0;
  ticks_since_stats_ = 0;
  wbuf_.clear();
  wbuf_head_ = 0;
  reader_ = net::FrameReader(net::kDefaultMaxFrame);
  // Greet with the v3 magic, then an immediate ping: the first pong is
  // the proof this node is really serving (a connect can succeed
  // against a listener whose process is already wedged).
  wbuf_.append(net::kFrameMagic);
  {
    Forward ping;
    ping.kind = Forward::Kind::kPing;
    send_forward(std::move(ping));
  }
  obs::EventLog::global().emit(
      "node_up", 0, {obs::EventLog::Field::str("node", name_.c_str())});
  if (obs::Tracer::global().enabled()) {
    // A node (re)joining mid-trace missed the `trace start` broadcast;
    // re-arm its ring so the next merged dump includes it.
    Forward ctl;
    ctl.kind = Forward::Kind::kTraceCtl;
    ctl.line = "trace start";
    send_forward(std::move(ctl));
  }
  flush_queue();
  send_buffered();
  if (state_ != State::kUp) return;
  update_interest();
}

void Upstream::handle_events(std::uint32_t events) {
  if (state_ == State::kConnecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      err = errno;
    }
    if (err != 0 || (events & (EPOLLERR | EPOLLHUP)) != 0) {
      fail(std::string("connect failed: ") +
               std::strerror(err != 0 ? err : ECONNREFUSED),
           kFailConnect);
      return;
    }
    on_connected();
    return;
  }
  if (state_ != State::kUp) return;
  if (events & EPOLLERR) {
    fail("socket error", kFailSocket);
    return;
  }
  if (events & EPOLLOUT) {
    send_buffered();
    if (state_ != State::kUp) return;
    flush_queue();
    send_buffered();
    if (state_ != State::kUp) return;
  }
  if (events & EPOLLIN) {
    on_readable();
    if (state_ != State::kUp) return;
  } else if (events & EPOLLHUP) {
    fail("backend hung up", kFailEof);
    return;
  }
  update_interest();
}

void Upstream::on_readable() {
  while (state_ == State::kUp) {
    char* dst = reader_.write_ptr();
    const std::size_t capacity = reader_.write_capacity();
    const ssize_t n = ::read(fd_, dst, capacity);
    if (n > 0) {
      reader_.commit(static_cast<std::size_t>(n));
      drain_frames();
      // A short read means the socket buffer is drained: skip the
      // would-be-EAGAIN read (epoll is level-triggered; anything that
      // races in re-signals).
      if (static_cast<std::size_t>(n) < capacity) break;
      continue;
    }
    if (n == 0) {
      fail("backend closed the connection", kFailEof);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    fail(std::string("read failed: ") + std::strerror(errno), kFailSocket);
    return;
  }
  if (state_ != State::kUp) return;
  // Answers freed window slots; move queued forwards into them.
  flush_queue();
  send_buffered();
}

void Upstream::drain_frames() {
  net::Frame frame;
  while (state_ == State::kUp) {
    const net::FrameReader::Status status = reader_.next(frame);
    if (status == net::FrameReader::Status::kNeedMore) return;
    if (status == net::FrameReader::Status::kBad) {
      fail("backend protocol violation: " + reader_.bad_reason(),
           kFailProtocol);
      return;
    }
    ResponseLine resp;
    std::string error;
    if (!net::decode_response_frame(frame, resp, error)) {
      fail("undecodable backend frame: " + error, kFailProtocol);
      return;
    }
    handle_response(std::move(resp));
  }
}

void Upstream::handle_response(ResponseLine&& resp) {
  last_heard_ns_ = obs::now_ns();
  if (!resp.id.has_value()) {
    // The router tags every forward, so an untagged answer matches
    // nothing. Count it and move on — it is a backend bug, not ours.
    ++router_.counters().orphan_responses;
    return;
  }
  const auto it = inflight_.find(*resp.id);
  if (it == inflight_.end()) {
    ++router_.counters().orphan_responses;
    return;
  }
  Forward fwd = std::move(it->second);
  inflight_.erase(it);
  switch (fwd.kind) {
    case Forward::Kind::kPing:
      ping_sent_ns_ = 0;
      break;
    case Forward::Kind::kStatsPoll:
      last_stats_ = std::move(resp.stats);
      break;
    case Forward::Kind::kSchedule:
      --inflight_schedules_;
      router_.on_upstream_response(fwd, std::move(resp));
      break;
    case Forward::Kind::kTracePull:
      router_.on_trace_pull(index_, std::move(resp.stats));
      break;
    case Forward::Kind::kTraceCtl:
      break;  // fire-and-forget broadcast; the ack carries nothing
  }
}

void Upstream::enqueue(Forward fwd) {
  // Serialize into the write buffer now — load/queue accounting must be
  // synchronous for route()'s bounded-load walk and for cancel_queued —
  // but leave the syscall to the shared deferred flush. Probes skip the
  // queue, as the health tick's pings and polls do.
  if (fwd.kind == Forward::Kind::kSchedule) {
    queue_.push_back(std::move(fwd));
    flush_queue();
  } else {
    send_forward(std::move(fwd));
  }
  schedule_send();
}

void Upstream::schedule_send() {
  if (send_scheduled_) return;
  send_scheduled_ = true;
  // `this` outlives every deferred call: upstreams are destroyed with
  // the Router, after run() returned and with it every deferred fn.
  router_.loop().defer([this] {
    send_scheduled_ = false;
    if (state_ != State::kUp) return;  // died or reconnecting since
    send_buffered();
    if (state_ != State::kUp) return;
    flush_queue();
    send_buffered();
    if (state_ != State::kUp) return;
    update_interest();
  });
}

bool Upstream::cancel_queued(std::uint64_t conn_id, std::uint64_t key) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->conn_id == conn_id && it->key == key) {
      queue_.erase(it);
      return true;
    }
  }
  return false;
}

void Upstream::send_forward(Forward&& fwd) {
  const std::uint64_t uid = router_.next_uid();
  fwd.sent_ns = obs::now_ns();
  net::FrameWriter writer(wbuf_);
  switch (fwd.kind) {
    case Forward::Kind::kPing:
      ping_sent_ns_ = fwd.sent_ns;
      writer.ping(uid);
      break;
    case Forward::Kind::kStatsPoll:
      writer.stats(uid);
      break;
    case Forward::Kind::kSchedule:
      ++inflight_schedules_;
      // Traced requests carry their id to the backend in the frame's
      // trace-context extension (origin 1 = the router); untraced ones
      // stay byte-identical to the pre-trace wire format.
      if (fwd.trace_id != 0) {
        writer.request(fwd.line + " id=" + std::to_string(uid),
                       net::TraceContext{fwd.trace_id, 1});
      } else {
        writer.request(fwd.line + " id=" + std::to_string(uid));
      }
      break;
    case Forward::Kind::kTracePull:
    case Forward::Kind::kTraceCtl:
      writer.request(fwd.line + " id=" + std::to_string(uid));
      break;
  }
  inflight_.emplace(uid, std::move(fwd));
}

void Upstream::flush_queue() {
  const RouterConfig& cfg = router_.config();
  while (state_ == State::kUp && !queue_.empty() &&
         inflight_schedules_ < cfg.upstream_window &&
         wbuf_.size() - wbuf_head_ <= cfg.upstream_max_wbuf) {
    Forward fwd = std::move(queue_.front());
    queue_.pop_front();
    send_forward(std::move(fwd));
  }
}

void Upstream::send_buffered() {
  while (state_ == State::kUp && wbuf_head_ < wbuf_.size()) {
    const ssize_t n =
        ::send(fd_, wbuf_.data() + wbuf_head_, wbuf_.size() - wbuf_head_,
               MSG_NOSIGNAL);
    if (n > 0) {
      wbuf_head_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    fail(std::string("write failed: ") + std::strerror(errno), kFailSocket);
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

void Upstream::update_interest() {
  if (fd_ < 0 || state_ != State::kUp) return;
  std::uint32_t want = EPOLLIN;
  if (wbuf_head_ < wbuf_.size()) want |= EPOLLOUT;
  if (want != interest_) {
    router_.loop().modify(fd_, want);
    interest_ = want;
  }
}

void Upstream::health_tick(std::uint64_t now_ns) {
  const RouterConfig& cfg = router_.config();
  switch (state_) {
    case State::kDown:
      if (now_ns >= next_connect_ns_) try_connect(now_ns);
      return;
    case State::kConnecting:
      if (now_ns - connect_started_ns_ > ms_to_ns(cfg.ping_timeout_ms)) {
        fail("connect timed out", kFailConnectTimeout);
      }
      return;
    case State::kUp:
      break;
  }
  if (ping_sent_ns_ != 0 &&
      now_ns - ping_sent_ns_ > ms_to_ns(cfg.ping_timeout_ms)) {
    // TCP never loses a pong; an overdue one means the node stopped
    // serving (wedged process, dead machine behind a live socket).
    fail("ping timed out", kFailPingTimeout);
    return;
  }
  if (ping_sent_ns_ == 0) {
    Forward ping;
    ping.kind = Forward::Kind::kPing;
    send_forward(std::move(ping));
  }
  if (cfg.stats_poll_ticks != 0 &&
      ++ticks_since_stats_ >= cfg.stats_poll_ticks) {
    ticks_since_stats_ = 0;
    Forward poll;
    poll.kind = Forward::Kind::kStatsPoll;
    send_forward(std::move(poll));
  }
  flush_queue();
  send_buffered();
  if (state_ != State::kUp) return;
  update_interest();
}

void Upstream::fail(const std::string& reason, int code) {
  if (state_ == State::kDown && fd_ < 0) return;
  close_fd();
  state_ = State::kDown;
  next_connect_ns_ =
      obs::now_ns() + ms_to_ns(router_.config().reconnect_backoff_ms);
  ping_sent_ns_ = 0;
  wbuf_.clear();
  wbuf_head_ = 0;
  last_stats_.clear();
  ++router_.counters().node_failures;
  ++disconnects_;
  last_error_code_ = static_cast<std::uint64_t>(code);
  std::fprintf(stderr, "[router] node %s down: %s\n", name_.c_str(),
               reason.c_str());
  obs::EventLog::global().emit(
      "node_down", 0,
      {obs::EventLog::Field::str("node", name_.c_str()),
       obs::EventLog::Field::str("reason", reason.c_str()),
       obs::EventLog::Field::u64("code", static_cast<std::uint64_t>(code))});
  // Hand every unanswered forward back AFTER this node reads as down,
  // so a retry's ring walk can never re-pick it. Probes die with the
  // socket; schedule forwards retry or settle the typed error; a dying
  // trace pull must tell the router so a merged dump in flight can
  // finish without this node instead of hanging.
  auto inflight = std::move(inflight_);
  inflight_.clear();
  inflight_schedules_ = 0;
  auto queued = std::move(queue_);
  queue_.clear();
  const auto hand_back = [this](Forward&& fwd) {
    if (fwd.kind == Forward::Kind::kSchedule) {
      if (fwd.retries_left > 0) ++retries_;
      router_.on_upstream_failed(std::move(fwd));
    } else if (fwd.kind == Forward::Kind::kTracePull) {
      router_.on_trace_pull_failed(index_);
    }
  };
  for (auto& [uid, fwd] : inflight) hand_back(std::move(fwd));
  for (auto& fwd : queued) hand_back(std::move(fwd));
}

}  // namespace treesched::cluster
