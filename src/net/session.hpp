#pragma once
// One client session (src/net/): the protocol side of an accepted
// socket, shared by both tiers — the single-node server
// (net/server.hpp) and the cluster router (cluster/router.hpp) run this
// same code for their clients. What a schedule request MEANS is the
// tier's SessionHandler: the server answers from its cache or submits a
// ticket, the router forwards to a backend node. Everything else lives
// here, once:
//
//  * Negotiation: the session starts in kDetect and buffers a prelude of
//    at most 4 bytes. A first byte of 0xB3 commits the client to the v3
//    magic (net/frame.hpp) — the full match switches to binary, a
//    mismatch answers one binary bad_request frame and closes. Any other
//    first byte is text v2: the prelude replays through the LineFramer.
//  * Framing and grammar: text lines (views into the read chunk, via
//    LineFramer and parse_text_line) and binary payloads (read straight
//    into the FrameReader's buffer) both parse through the zero-copy
//    parse_request_view and funnel into one dispatch. An oversized line
//    or a grammar error answers a typed bad_request in stream order and
//    the stream goes on; a bad frame is a protocol violation — answered
//    once, then the session stops reading and closes once flushed.
//  * The pending window: untagged requests answer in submission order,
//    id=-tagged ones the moment they settle. At most max_pending
//    requests are unsettled (excess ones answer queue_full without
//    reaching the handler), a tag may not repeat while its request is
//    unsettled, and `cancel id=N` asks the handler to withdraw one.
//    Reading pauses while max_pending settled answers wait behind an
//    unsettled one and resumes once half of them have gone out, so a
//    client that pipelines behind a slow request holds at most
//    2 x max_pending answers plus one read chunk or one frame.
//  * ping / stats / trace answer at once, out of band of the window —
//    except a trace dump the handler settles later, which takes a
//    window entry so untagged answers behind it keep their order.
//    `stats` answers with the tier's metrics registry, the same samples
//    its /metrics endpoint renders (Frontend::registry()).
//  * Output: answers are encoded straight into a bounded write buffer in
//    the session's protocol and flushed once per read burst or delivery
//    batch. Past max_wbuf buffered bytes the session stops reading until
//    the client drains it below half.
//  * Half-close answers and flushes everything, then closes; an EOF that
//    truncates a frame answers bad_request first. An abrupt disconnect
//    cancels every unsettled request through the handler.
//  * Accounting: each flushed answer that carries an accept stamp hands
//    its stage record to the handler, and every answer counts toward the
//    windowed SLO error ratio by one rule (see note_answer in
//    net/frontend.hpp).
//
// All methods run on the tier's event-loop thread.

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/line_framer.hpp"
#include "obs/stages.hpp"
#include "service/errors.hpp"
#include "service/request_line.hpp"
#include "service/request_view.hpp"

namespace treesched::net {

class Frontend;
class Session;

/// Stage record of one flushed answer, handed to
/// SessionHandler::record_flushed once its last byte reached the kernel.
/// Carries what the slow-request log prints: the full stamp set plus
/// enough identity to find the request again.
struct ResponseTiming {
  obs::StageStamps stamps;
  Priority priority = Priority::kBatch;
  std::optional<std::uint64_t> id;
  std::string algo;  ///< short names; stays within SSO on the hot path
  bool cache_hit = false;
  /// Propagated distributed trace id (0 = untraced).
  std::uint64_t trace_id = 0;
};

/// The protocol counters both tiers keep under the same names; each
/// tier's collector reports them through its metrics registry, to
/// `stats` and /metrics alike.
struct SessionCounters {
  std::uint64_t accepted = 0;        ///< connections accepted
  std::uint64_t rejected_conns = 0;  ///< turned away at max_conns
  std::uint64_t lines = 0;           ///< requests framed (text lines and
                                     ///< binary request payloads alike)
  std::uint64_t v3_conns = 0;        ///< connections that negotiated v3
  std::uint64_t frames_in = 0;       ///< well-formed v3 frames parsed
  std::uint64_t frames_bad = 0;      ///< protocol-violating frames
  std::uint64_t batch_requests = 0;  ///< requests that arrived in batches
  std::uint64_t parse_errors = 0;    ///< requests rejected by the grammar
};

/// Per-session limits (part of FrontendConfig, net/frontend.hpp).
struct SessionConfig {
  /// Unsettled-request window, >= 1; excess requests answer the typed
  /// queue_full error without reaching the handler.
  std::size_t max_pending = 64;
  /// Write-buffer high watermark in bytes; past it the session stops
  /// reading until the client drains below half.
  std::size_t max_wbuf = 256 * 1024;
  /// Longest accepted text line; longer lines answer bad_request.
  std::size_t max_line = LineFramer::kDefaultMaxLine;
  /// Largest accepted v3 frame; a bigger length prefix answers
  /// bad_request and closes (the hostile length is never buffered).
  std::size_t max_frame = kDefaultMaxFrame;
  /// Directory `trace dump=` may write into. Empty refuses dumps: the
  /// verb names a file on this host, and a network client must never
  /// choose where the tier writes. When set, dump paths must be plain
  /// relative names inside it.
  std::string trace_dir;
};

/// What a tier does with the requests its sessions frame. Only the
/// verbs whose meaning differs between tiers reach it: ping and stats
/// are the session's own.
class SessionHandler {
 public:
  /// Takes parsed schedule request `req` as window entry `key` of
  /// `session`. A request refused on the spot (an unresolvable spec, no
  /// route) returns its error; otherwise the handler settles the entry
  /// through session.deliver(key, ...), inside this call or later on
  /// the loop thread, and returns nullopt.
  virtual std::optional<ServiceError> schedule(Session& session,
                                               std::uint64_t key,
                                               const RequestView& req,
                                               const TraceContext& ctx) = 0;

  /// Withdraws unsettled entry `key`. True when the request is stopped
  /// and its `cancelled` answer will be delivered; false when it can no
  /// longer be stopped. Also called for every unsettled entry when a
  /// session dies, which then drops whatever is delivered.
  virtual bool cancel(Session& session, std::uint64_t key) = 0;

  /// `trace start` or `trace stop` just switched the process tracer.
  virtual void trace_switched(bool /*on*/) {}
  /// Extra `trace status` pairs, after the per-ring drop counts.
  virtual void trace_status(
      std::vector<std::pair<std::string, std::uint64_t>>& /*out*/) {}
  /// `trace dump` into `path` (already confined to trace_dir). Returns
  /// the answer to send at once, out of band; or nullopt once the dump
  /// owns window entry `key` and will settle it through deliver().
  virtual std::optional<ResponseLine> trace_dump(Session& session,
                                                 std::uint64_t key,
                                                 std::string path) = 0;

  /// A stamped answer's last byte reached the kernel.
  virtual void record_flushed(const ResponseTiming& /*timing*/) {}

  /// False while the drain must still wait for work outside the
  /// sessions.
  [[nodiscard]] virtual bool drained() const { return true; }

 protected:
  ~SessionHandler() = default;
};

/// A failed answer.
ResponseLine error_answer(ErrorCode code, std::string message);

class Session {
 public:
  /// Takes ownership of `fd` (non-blocking, already accepted) and
  /// registers it with the frontend's event loop.
  Session(Frontend& frontend, int fd, std::uint64_t id);

  /// Cancels every unsettled request and closes the socket.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Clock reading of the current read burst: one stamp serves every
  /// request framed out of one readable event.
  [[nodiscard]] std::uint64_t burst_ns() const { return burst_ns_; }

  /// Epoll dispatch: reads and frames input on EPOLLIN, flushes on
  /// EPOLLOUT, aborts on EPOLLHUP/EPOLLERR. May defer-close itself.
  void handle_events(std::uint32_t events);

  /// Settles window entry `key` with `answer`, whose id becomes the
  /// client's tag. `stamps` is the request's stage record; an answer
  /// without an accept stamp records no stage times. Unknown or
  /// already-settled keys are ignored. The answer goes out at the end
  /// of the current loop iteration, with every other answer settled in
  /// it.
  void deliver(std::uint64_t key, ResponseLine answer,
               const obs::StageStamps& stamps = {});

  /// Tier drain: stop reading, answer the window, flush, then close.
  void begin_drain();

 private:
  enum class Mode { kDetect, kText, kBinary };

  /// One request of the window, in submission order (keys ascend).
  struct Entry {
    std::uint64_t key = 0;
    std::optional<std::uint64_t> id;  ///< the client's tag
    int cls = -1;                     ///< SLO class (see note_answer)
    std::uint64_t trace_id = 0;       ///< propagated v3 trace context
    bool settled = false;
    ResponseLine answer;
    obs::StageStamps stamps;
  };
  /// An unsettled entry: what cancel and the duplicate-tag check search.
  struct Open {
    std::uint64_t key = 0;
    std::optional<std::uint64_t> id;
    bool schedule = false;  ///< counts against max_pending
  };

  // --- input path ----------------------------------------------------
  void on_readable();
  /// kDetect/kText bytes: resolves the protocol, then frames.
  void handle_bytes(const char* data, std::size_t len);
  void note_detected();
  void handle_line(const LineFramer::LineView& line);
  /// Frames buffered v3 requests until the buffer or the window runs
  /// out.
  void drain_frames();
  void handle_frame(const Frame& frame);
  void handle_request_payload(std::string_view payload,
                              const TraceContext& ctx);
  void protocol_violation(std::string message);
  /// True when max_pending settled answers wait behind an unsettled
  /// entry (flushing the answerable ones first); pauses reading.
  bool window_full();

  // --- dispatch ------------------------------------------------------
  void dispatch_request(const RequestView& req, const TraceContext& ctx);
  void handle_schedule(const RequestView& req, const TraceContext& ctx);
  void handle_cancel(std::uint64_t cancel_id);
  void handle_trace(const RequestView& req);

  // --- window --------------------------------------------------------
  std::uint64_t open_entry(std::optional<std::uint64_t> id, int cls,
                           bool schedule);
  /// Removes the just-opened entry `key` again (the handler answered
  /// out of band).
  void drop_last(std::uint64_t key);
  /// An untagged error that keeps its place in the stream.
  void push_error(ErrorCode code, std::string message, int cls);
  /// A refused schedule request: tagged ones answer at once, untagged
  /// ones in stream order.
  void refuse(std::optional<std::uint64_t> id, ErrorCode code,
              std::string message, int cls);
  [[nodiscard]] const Open* find_open(std::uint64_t tag) const;
  /// Emits every answerable entry: the settled in-order prefix, then
  /// settled tagged entries anywhere in the window.
  void flush_ready();
  void emit(Entry& entry);

  // --- output path ---------------------------------------------------
  /// Sends `line` now, out of band of the window.
  void answer_now(const ResponseLine& line, int cls);
  /// Appends one answer to wbuf_ in the session's protocol.
  void send_response(const ResponseLine& line);
  /// Arms the once-per-loop-iteration flush of delivered answers.
  void schedule_flush();
  void flush_deferred();
  void send_buffered();
  void update_interest();
  void abort_session();
  /// Half-close/drain path: close once nothing is pending or buffered.
  void finish_if_drained();
  [[nodiscard]] std::size_t buffered() const {
    return wbuf_.size() - wbuf_head_;
  }

  Frontend& frontend_;
  const SessionConfig& config_;
  const int fd_;
  const std::uint64_t id_;
  Mode mode_ = Mode::kDetect;
  std::string prelude_;  ///< undetermined first bytes (at most 4)
  LineFramer framer_;
  FrameReader reader_;

  std::deque<Entry> window_;
  std::vector<Open> open_;
  std::size_t inflight_ = 0;        ///< unsettled schedule entries
  std::size_t settled_ = 0;         ///< settled entries not yet emitted
  std::size_t settled_tagged_ = 0;  ///< of which carry a tag
  std::uint64_t next_key_ = 1;

  std::string wbuf_;
  std::size_t wbuf_head_ = 0;  ///< sent prefix (compacted lazily)
  std::uint32_t interest_ = 0;

  // --- stage timing --------------------------------------------------
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

  bool read_closed_ = false;     ///< EOF seen or drain begun
  bool closing_ = false;         ///< defer_close already requested
  bool wbuf_paused_ = false;     ///< write buffer past max_wbuf
  bool window_paused_ = false;   ///< window past max_pending settled
  bool flush_scheduled_ = false;
};

}  // namespace treesched::net
