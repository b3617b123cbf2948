#pragma once
// One backend node, as seen from the cluster router (src/cluster/): a
// non-blocking protocol-v3 connection multiplexing every client's
// forwarded requests onto one pipelined socket, plus the node's health
// state machine. All methods run on the router's I/O (event-loop)
// thread — the router is single-threaded end to end; it never computes,
// so one epoll loop carries both sides of every hop.
//
// Forwarding: each routed request becomes a Forward — the canonical
// request line (no id=), the client connection/window entry it answers,
// the spec key it was routed by, and its remaining retry budget. At
// send time the forward gets a router-assigned upstream id (one counter
// across all upstreams, so an id can never collide anywhere) appended
// as `id=<uid>`, making every upstream answer attributable no matter
// how far out of order the backend completes it. Responses map uid ->
// Forward -> client window entry; the id is rewritten back to the
// client's own tag (or dropped for untagged requests) on delivery.
//
// Windowing: at most `upstream_window` schedule forwards are in flight
// per node; excess forwards wait in a bounded per-node queue. Pings,
// stats polls and trace probes skip the queue and count neither against
// the window nor as routing load, so a probe the node has not answered
// yet never holds routed work back or moves placement. A full queue is
// the router's backpressure signal — route() fails typed (queue_full)
// and the client hears it immediately instead of the router buffering
// without bound. A slow upstream additionally caps the
// socket write buffer: past upstream_max_wbuf no queued forward is
// serialized, so a node that stops reading stalls its own queue, never
// the router.
//
// Health: the router's periodic tick pings each node (kPing frames ride
// the same uid space) and fails it when the pong is `ping_timeout_ms`
// overdue, when connect() fails, or when the socket errors — whichever
// comes first. fail() hands every in-flight and queued Forward back to
// the router, which retries each on the next ring alternate (fresh uid,
// deterministic requests make the re-execution safe) or answers the
// typed node_unavailable error when the budget or the cluster is
// exhausted. A failed node reconnects with backoff and re-enters the
// ring eligibility set on the next successful connect.
//
// The tick also polls each node's `stats` (every few intervals); the
// last snapshot feeds the router's aggregated stats verb and keeps
// working while the node is up.
//
// Frame bound: a node's answers are read under the protocol default,
// net::kDefaultMaxFrame — never under the router's client-facing
// --max-frame-kb, which bounds what clients send. A node sizes its
// replies to that default (a `stats` reply runs to kilobytes and a full
// `trace pull` to hundreds; see kTracePullMaxSpans in obs/trace.hpp),
// so a tighter client bound would fail a healthy node as a protocol
// violation.

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame.hpp"

namespace treesched::cluster {

class Router;

/// One routed request (or router-internal probe) bound for a backend.
struct Forward {
  /// kTracePull asks the node for its span ring (`trace pull`, answered
  /// with a kTraceReply the router folds into a merged dump);
  /// kTraceCtl broadcasts `trace start`/`trace stop` (reply ignored).
  enum class Kind { kSchedule, kPing, kStatsPoll, kTracePull, kTraceCtl };
  Kind kind = Kind::kSchedule;
  std::uint64_t conn_id = 0;  ///< client connection (0 = router-internal)
  std::uint64_t key = 0;      ///< client window entry
  std::string line;           ///< canonical request line, no id= field
  std::uint64_t route_key = 0;  ///< spec_key of the request's tree spec
  int retries_left = 0;
  std::uint64_t sent_ns = 0;  ///< stamped at (each) send, for latency
  /// Distributed trace id (0 = untraced): generated by the router when
  /// tracing is on, carried to the backend in the frame's trace-context
  /// extension, and stamped on every span this request produces.
  std::uint64_t trace_id = 0;
  int priority = -1;  ///< Priority class for SLO accounting (-1 = none)
};

class Upstream {
 public:
  enum class State { kDown, kConnecting, kUp };

  /// Does not connect — the router's first health tick does, so startup
  /// failures ride the same backoff path as mid-run deaths.
  Upstream(Router& router, std::size_t index, std::string host,
           std::uint16_t port);
  ~Upstream();

  Upstream(const Upstream&) = delete;
  Upstream& operator=(const Upstream&) = delete;

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  /// Routing load: schedule forwards in flight plus queued (the
  /// bounded-load ring compares these across nodes). Probes never
  /// count, so an unanswered ping cannot move placement.
  [[nodiscard]] std::size_t load() const {
    return inflight_schedules_ + queue_.size();
  }
  [[nodiscard]] std::size_t inflight() const { return inflight_.size(); }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  /// Eligible for new routes: not known-dead and queue not full.
  [[nodiscard]] bool routable() const;
  /// Last polled backend `stats` snapshot (empty until the first poll).
  [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>&
  last_stats() const {
    return last_stats_;
  }
  /// Lifetime node-death count (every fail() transition to kDown).
  [[nodiscard]] std::uint64_t disconnects() const { return disconnects_; }
  /// Schedule forwards this node's deaths handed back with retry budget
  /// left (the retry-on-alternate events attributed to this node).
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  /// Numeric reason of the last fail() (FailCode below; 0 = never).
  [[nodiscard]] std::uint64_t last_error_code() const {
    return last_error_code_;
  }

  /// Wire-stable numeric spellings of fail() reasons, reported as
  /// nodeK_last_error_code by the router's stats verb.
  enum FailCode : int {
    kFailNone = 0,
    kFailConnect = 1,       ///< connect refused / failed
    kFailConnectTimeout = 2,
    kFailPingTimeout = 3,
    kFailSocket = 4,        ///< EPOLLERR / read / write error
    kFailEof = 5,           ///< backend closed or hung up
    kFailProtocol = 6,      ///< bad frame / undecodable answer
  };

  /// Accepts one forward: serializes a probe at once, and a schedule
  /// forward when the window and write buffer allow (so window/queue
  /// accounting is synchronous), queueing it otherwise. The actual
  /// send() syscall is deferred to the end of the current event-loop
  /// dispatch batch, so N clients routed here in one batch cost ONE
  /// write on the shared upstream socket. The caller checked
  /// routable().
  void enqueue(Forward fwd);

  /// Removes a still-queued (never sent) forward for this client window
  /// entry. True when it was found — the cancel settles client-side; a
  /// forward already on the wire cannot be cancelled remotely.
  bool cancel_queued(std::uint64_t conn_id, std::uint64_t key);

  /// Health driver, called from the router's periodic tick: connects
  /// (with backoff) when down, fails an overdue connect or ping, sends
  /// the next ping / stats poll when up.
  void health_tick(std::uint64_t now_ns);

  /// Marks the node dead: closes the socket, hands every in-flight and
  /// queued Forward back to the router (retry or typed error), arms the
  /// reconnect backoff. Idempotent while down. `code` is the FailCode
  /// the stats verb reports as this node's last_error_code.
  void fail(const std::string& reason, int code = kFailSocket);

 private:
  void try_connect(std::uint64_t now_ns);
  void on_connected();
  void handle_events(std::uint32_t events);
  void on_readable();
  void drain_frames();
  void handle_response(ResponseLine&& resp);
  void send_forward(Forward&& fwd);
  /// Moves queued forwards into flight while the window and write
  /// buffer have room.
  void flush_queue();
  void send_buffered();
  /// Arms a once-per-dispatch-batch deferred send_buffered() (see
  /// EventLoop::defer) instead of issuing a syscall per enqueue.
  void schedule_send();
  void update_interest();
  void close_fd();

  Router& router_;
  const std::size_t index_;  ///< dense ring/node index
  const std::string host_;
  const std::uint16_t port_;
  const std::string name_;  ///< "host:port", the ring identity

  State state_ = State::kDown;
  int fd_ = -1;
  std::uint32_t interest_ = 0;
  std::uint64_t connect_started_ns_ = 0;
  std::uint64_t next_connect_ns_ = 0;  ///< backoff gate
  std::uint64_t last_heard_ns_ = 0;    ///< any frame proves liveness
  std::uint64_t ping_sent_ns_ = 0;     ///< 0 = no ping outstanding
  unsigned ticks_since_stats_ = 0;

  std::string wbuf_;
  std::size_t wbuf_head_ = 0;
  bool send_scheduled_ = false;  ///< a deferred send_buffered is armed
  net::FrameReader reader_;

  std::unordered_map<std::uint64_t, Forward> inflight_;  ///< by uid
  std::size_t inflight_schedules_ = 0;  ///< kSchedule entries of inflight_
  std::deque<Forward> queue_;  ///< schedule forwards awaiting the window
  std::vector<std::pair<std::string, std::uint64_t>> last_stats_;
  std::uint64_t disconnects_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t last_error_code_ = kFailNone;
};

}  // namespace treesched::cluster
