#pragma once
// One client connection of the scheduling server (src/net/): owns the
// socket, the protocol state (negotiated text v2 or binary v3), the
// bounded write buffer, and the window of in-flight requests. All
// methods run on the server's I/O (event-loop) thread; completions
// computed on pool workers re-enter through Server::ticket_settled ->
// EventLoop::post -> deliver().
//
// Protocol negotiation: the connection starts in kDetect and buffers a
// prelude of at most 4 bytes. A first byte of 0xB3 commits the client
// to the v3 magic (net/frame.hpp) — the full match switches to kBinary,
// a mismatch answers one binary bad_request frame and closes. Any other
// first byte is text v2: the prelude replays through the LineFramer and
// `nc` clients never notice v3 exists.
//
// Both protocols share ONE parser and ONE dispatch path: text lines
// (views into the read chunk, via LineFramer and parse_text_line) and
// binary payloads both parse through the zero-copy parse_request_view
// (service/request_view.hpp), then funnel into
// dispatch_request(RequestView) and the same pending-window semantics —
// untagged requests answer in submission order, id=-tagged ones stream
// out the moment they settle, `cancel` hits still-queued requests, and
// ping/stats answer immediately, out of band of the window. Responses
// are emitted in the connection's own protocol by send_response().
//
// Both read paths are zero-copy: the socket reads straight into the
// FrameReader's buffer (v3) or a read chunk the LineFramer scans in
// place (v2), request fields are string_views into those bytes, and the
// single owned copy per request happens where it must — building the
// ScheduleRequest that crosses into the service layer. Answers are
// written straight into the write buffer (FrameWriter or
// append_response_line). Batch frames and pipelined lines serve many
// requests per read; their answers coalesce and flush together.
//
// Production realities handled here:
//  * Framing: requests arrive however the kernel fragments them; an
//    oversized line or frame answers a typed bad_request (the line
//    path resynchronizes on the newline; a bad frame closes the
//    connection after the answer — framing is unrecoverable).
//  * Admission: at most `max_pending` unsettled requests per
//    connection; excess requests answer the typed queue_full error
//    without touching the service.
//  * Backpressure: when the write buffer passes its high watermark the
//    connection stops reading (EPOLLIN off) until the client drains it
//    below half — a slow reader stalls itself, never the server.
//  * Half-close (EOF): remaining requests are answered and flushed,
//    then the connection closes — like EOF on the stdin front-end. An
//    EOF that truncates a binary frame answers bad_request first.
//  * Abrupt disconnect (reset/write failure): still-queued tickets are
//    cancelled so a vanished client's work never occupies a worker;
//    running computations finish and their completions are dropped.

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "net/frame.hpp"
#include "net/line_framer.hpp"
#include "obs/stages.hpp"
#include "service/request_line.hpp"
#include "service/request_view.hpp"
#include "service/ticket.hpp"

namespace treesched::net {

class Server;

/// Stage record of one flushed response, handed to
/// Server::record_flushed when the response's last byte reaches the
/// kernel. Carries what the slow-request log prints: the full stamp
/// set plus enough identity to find the request again.
struct ResponseTiming {
  obs::StageStamps stamps;
  Priority priority = Priority::kBatch;
  std::optional<std::uint64_t> id;
  std::string algo;  ///< short names; stays within SSO on the hot path
  bool cache_hit = false;
  /// Router-stamped distributed trace id (0 = untraced); rides the net
  /// spans and the slow-request / event-log lines so one id follows a
  /// request across tiers.
  std::uint64_t trace_id = 0;
};

class Connection {
 public:
  /// Takes ownership of `fd` (non-blocking, already accepted) and
  /// registers it with the server's event loop.
  Connection(Server& server, int fd, std::uint64_t id);

  /// Cancels still-queued tickets and closes the socket. Unsettled
  /// completions are dropped when they later arrive (the server keeps
  /// its outstanding-ticket accounting regardless).
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Epoll dispatch: reads and frames input on EPOLLIN, flushes on
  /// EPOLLOUT, aborts on EPOLLHUP/EPOLLERR. May defer-close itself.
  void handle_events(std::uint32_t events);

  /// A ticket settled (posted from Server::ticket_settled): records the
  /// result in the pending window and emits every answer that became
  /// orderable.
  void deliver(std::uint64_t key, const ServiceResult& result);

  /// Server drain (SIGTERM/stop): stop reading, answer the pending
  /// window, flush, then close.
  void begin_drain();

 private:
  enum class Mode { kDetect, kText, kBinary };

  /// One request of the pending window. Entries that failed before
  /// reaching submit() carry `result` from birth.
  struct Pending {
    std::uint64_t key = 0;
    Ticket ticket;
    std::optional<std::uint64_t> id;
    TreeHash tree_hash = 0;
    NodeId n = 0;
    std::string algo;
    int p = 1;
    Priority priority = Priority::kBatch;
    std::uint64_t trace_id = 0;  ///< propagated v3 trace context (0 = none)
    std::optional<ServiceResult> result;
  };

  // --- input path ----------------------------------------------------
  void on_readable();
  /// kDetect/kText bytes: resolves the protocol, then frames.
  void handle_bytes(const char* data, std::size_t len);
  /// Records the per-connection protocol-negotiation span (tracer on).
  void note_detected();
  void feed_text(const char* data, std::size_t len);
  void handle_line(const LineFramer::LineView& line);
  /// Drains every complete frame buffered in the FrameReader.
  void drain_frames();
  void handle_frame(const Frame& frame);
  /// One v3 request payload (standalone or batch entry): zero-copy
  /// parse, then the shared dispatch. `ctx` is the frame's propagated
  /// trace context (all-zero on the text path and on untraced frames).
  void handle_request_payload(std::string_view payload,
                              const TraceContext& ctx);
  /// Marks the connection protocol-dead: answers bad_request, stops
  /// reading, and lets the window settle and flush before closing.
  void protocol_violation(std::string message);

  // --- shared dispatch (both protocols) ------------------------------
  void dispatch_request(const RequestView& req, const TraceContext& ctx);
  void handle_schedule(const RequestView& req, const TraceContext& ctx);
  void handle_cancel(std::uint64_t cancel_id);
  void handle_ping(std::optional<std::uint64_t> id);
  void handle_stats(std::optional<std::uint64_t> id);
  /// `trace start|stop|status|pull|dump=<path>`: drives the
  /// process-wide obs::Tracer and answers a stats-shaped `trace` line
  /// (`pull` answers the spans themselves, encoded as pairs).
  void handle_trace(const RequestView& req);

  // --- output path ---------------------------------------------------
  /// Emits every answerable response: the settled in-order prefix, plus
  /// settled tagged entries anywhere in the window.
  void flush_ready();
  void emit(const Pending& pending, const ServiceResult& result);
  void emit_error(std::optional<std::uint64_t> id, ErrorCode code,
                  const std::string& message);
  void push_settled_error(std::optional<std::uint64_t> id, ErrorCode code,
                          std::string message);
  [[nodiscard]] bool has_pending_tag(std::uint64_t tag) const;
  /// Appends one response to wbuf_ in the connection's protocol: a
  /// formatted text line or a binary frame.
  void send_response(const ResponseLine& line);

  void send_buffered();     ///< write() as much of wbuf_ as possible
  void update_interest();   ///< recompute EPOLLIN/EPOLLOUT mask
  void abort_connection();  ///< reset path: cancel + defer close
  /// Half-close/drain path: close once nothing is pending or buffered.
  void finish_if_drained();

  Server& server_;
  const int fd_;
  const std::uint64_t id_;
  Mode mode_ = Mode::kDetect;
  std::string prelude_;  ///< undetermined first bytes (at most 4)
  LineFramer framer_;
  FrameReader reader_;
  std::deque<Pending> pending_;
  std::size_t inflight_ = 0;  ///< submitted tickets not yet settled
  std::uint64_t next_key_ = 1;

  std::string wbuf_;
  std::size_t wbuf_head_ = 0;  ///< sent prefix (compacted lazily)
  std::uint32_t interest_ = 0;

  // --- stage timing ---------------------------------------------------
  // The accept/parse stamp of the current read burst: one clock read
  // serves every request framed out of one readable event, so a 16-deep
  // batch frame costs one now_ns(), not sixteen. The serialize stamp is
  // likewise read lazily once per emit burst.
  std::uint64_t burst_ns_ = 0;
  std::uint64_t emit_now_ns_ = 0;  ///< 0 = unread this emit burst
  /// Total bytes ever handed to the kernel (wbuf_ compacts; this never
  /// rewinds). A FlushMark whose target is <= cum_sent_ has fully left
  /// the process.
  std::uint64_t cum_sent_ = 0;
  struct FlushMark {
    std::uint64_t target = 0;  ///< cum_sent_ value that completes it
    ResponseTiming timing;
  };
  std::deque<FlushMark> flush_q_;
  bool read_closed_ = false;   ///< EOF seen or drain begun
  bool closing_ = false;       ///< defer_close already requested
  bool paused_reads_ = false;  ///< backpressure: EPOLLIN off until drained
};

}  // namespace treesched::net
