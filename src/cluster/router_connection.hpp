#pragma once
// One client connection of the cluster router (src/cluster/): the same
// protocol surface as the single-node server's net::Connection — v2/v3
// negotiation by first bytes, the pending window with in-order untagged
// and out-of-order tagged answers, bounded write buffer with
// backpressure hysteresis, half-close and drain semantics — but where
// the server submits tickets to an in-process service, this forwards to
// a backend node through Router::route() and settles when the node's
// answer comes back through deliver() with the id remapped to the
// client's own tag.
//
// Deliberate divergences from net::Connection, all router-semantics:
//  * schedule requests never touch a scheduler here — resolve the spec
//    to its routing fingerprint, route, wait;
//  * `cancel` only reaches work the router still holds: a forward still
//    queued router-side is removed and answered `cancelled`; one
//    already on the wire acks the same untagged "already running or
//    answered" line the server uses — the router never forwards
//    cancels upstream (see Router::try_cancel for why);
//  * ping / stats / trace answer locally: ping proves THIS hop alive,
//    stats aggregates router + backend counters, trace drives the
//    router process's own span recorder.

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "net/frame.hpp"
#include "net/line_framer.hpp"
#include "service/request_line.hpp"
#include "service/request_view.hpp"

namespace treesched::cluster {

class Router;

class RouterConnection {
 public:
  /// Takes ownership of `fd` (non-blocking, already accepted) and
  /// registers it with the router's event loop.
  RouterConnection(Router& router, int fd, std::uint64_t id);
  ~RouterConnection();

  RouterConnection(const RouterConnection&) = delete;
  RouterConnection& operator=(const RouterConnection&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Epoll dispatch: reads on EPOLLIN, flushes on EPOLLOUT, aborts on
  /// EPOLLHUP/EPOLLERR. May defer-close itself.
  void handle_events(std::uint32_t events);

  /// A backend answered window entry `key` (or the router synthesized
  /// an error for it): rewrite the id to the client's tag and emit
  /// every answer that became orderable.
  void deliver(std::uint64_t key, ResponseLine&& resp);

  /// A retry moved window entry `key` to another node (cancel
  /// bookkeeping only — the answer path is deliver() either way).
  void note_routed(std::uint64_t key, std::size_t node);

  /// Router drain: stop reading, settle what remains, flush, close.
  void begin_drain();

 private:
  enum class Mode { kDetect, kText, kBinary };

  /// One request of the pending window. Entries that failed before
  /// routing carry `result` from birth. A merged `trace dump` rides the
  /// window too (never routed; Router::finish_trace_dump settles it),
  /// so untagged answers behind it keep submission order.
  struct Pending {
    std::uint64_t key = 0;
    std::optional<std::uint64_t> id;  ///< the CLIENT's tag
    std::size_t node = SIZE_MAX;      ///< routed node (for cancel)
    bool routed = false;
    int priority = -1;  ///< SLO class of a schedule entry (-1 = none)
    std::optional<ResponseLine> result;
  };

  // --- input path (negotiation and framing mirror net::Connection) ----
  void on_readable();
  void handle_bytes(const char* data, std::size_t len);
  void feed_text(const char* data, std::size_t len);
  void handle_line(const net::LineFramer::LineView& line);
  void drain_frames();
  void handle_frame(const net::Frame& frame);
  void handle_request_payload(std::string_view payload,
                              const net::TraceContext& ctx);
  void protocol_violation(std::string message);

  // --- shared dispatch (both protocols) ------------------------------
  void dispatch_request(const RequestView& req,
                        const net::TraceContext& ctx);
  void handle_schedule(const RequestView& req, const net::TraceContext& ctx);
  void handle_cancel(std::uint64_t cancel_id);
  void handle_ping(std::optional<std::uint64_t> id);
  void handle_stats(std::optional<std::uint64_t> id);
  void handle_trace(const RequestView& req);

  // --- output path ----------------------------------------------------
  /// Arms a once-per-dispatch-batch deferred flush_ready+send (see
  /// EventLoop::defer): answers delivered in one batch share one
  /// window scan and one send() syscall.
  void schedule_flush();
  void flush_deferred();
  void flush_ready();
  void emit_error(std::optional<std::uint64_t> id, ErrorCode code,
                  const std::string& message);
  void push_settled_error(std::optional<std::uint64_t> id, ErrorCode code,
                          std::string message);
  [[nodiscard]] bool has_pending_tag(std::uint64_t tag) const;
  void send_response(const ResponseLine& line);
  void send_buffered();
  void update_interest();
  void abort_connection();
  void finish_if_drained();

  Router& router_;
  const int fd_;
  const std::uint64_t id_;
  Mode mode_ = Mode::kDetect;
  std::string prelude_;  ///< undetermined first bytes (at most 4)
  net::LineFramer framer_;
  net::FrameReader reader_;
  std::deque<Pending> pending_;
  std::size_t inflight_ = 0;  ///< routed forwards not yet settled
  std::uint64_t next_key_ = 1;

  std::string wbuf_;
  std::size_t wbuf_head_ = 0;
  std::uint32_t interest_ = 0;
  bool read_closed_ = false;
  bool closing_ = false;
  bool paused_reads_ = false;
  bool flush_scheduled_ = false;  ///< a deferred output flush is armed
};

}  // namespace treesched::cluster
