#pragma once
// The networked scheduling server (src/net/): an epoll-driven front-end
// serving many concurrent clients over TCP or a unix-domain socket,
// multiplexed onto ONE I/O thread. Each client is a net::Session
// (net/session.hpp), speaking text v2 or binary v3 as its first bytes
// decide; the server is the SessionHandler that answers its schedule
// requests, and a net::Frontend (net/frontend.hpp) runs the accept,
// drain and signal lifecycle.
//
//   net -> service -> sched:
//
//   Client ──TCP──> Session ──submit()──> SchedulingService ─> pool
//      ^               |  ^                       │
//      └── response ───┘  └── EventLoop::post <───┘ Ticket::on_complete
//
// The I/O thread never blocks and never computes: a cache hit answers
// on the spot, anything else is submitted as a Ticket whose completion
// re-enters the loop through Ticket::on_complete -> EventLoop::post,
// which wakes the epoll wait. All scheduler compute rides the service's
// thread pool, exactly as for in-process callers — the server is a
// transport, not a second engine.
//
// Lifecycle: the constructor binds (port 0 = ephemeral, read back via
// port()); run() serves until stop() or — with handle_signals —
// SIGTERM/SIGINT, then drains: the listener closes, sessions stop
// reading, every accepted request is answered or cancelled, write
// buffers flush, and run() returns only when no ticket is outstanding,
// so destroying the server (and then the service) is always safe.
//
// Scale limits are explicit and typed: at most max_conns sockets (the
// excess is greeted with a queue_full error line and closed), at most
// max_pending unsettled requests per connection (excess requests answer
// queue_full), at most max_wbuf buffered response bytes per connection
// (past it the connection stops reading until the client drains), at
// most max_line text-line / max_frame binary-frame bytes per request.
//
// Observability: the server reports through the service's registry, so
// `stats` and the --metrics-port scrape read the same samples. The
// stats line carries the service's keys (queue, cache, store, pool),
// then the server's transport keys (conns, lines, frames, ...), then
// the stage-histogram summaries (<key>_count, _window_count,
// _p50_us/_p90_us/_p99_us).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/frontend.hpp"
#include "net/metrics_http.hpp"
#include "net/session.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"

namespace treesched::net {

struct ServerConfig {
  /// IPv4 address the TCP listener binds; "0.0.0.0" opens it to the
  /// network, the loopback default keeps it local.
  std::string bind = "127.0.0.1";
  /// TCP port; 0 = kernel-assigned (see Server::port()).
  std::uint16_t port = 0;
  /// Nonempty = serve on a unix-domain socket at this path instead of
  /// TCP (bind/port are ignored). Same protocols, no TCP stack.
  std::string unix_path;
  /// Accepted-connection bound; excess connections are answered with
  /// one queue_full error line and closed.
  std::size_t max_conns = 256;
  /// Per-connection unsettled-request bound; excess requests answer the
  /// typed queue_full error without reaching the service.
  std::size_t max_pending = 64;
  /// Per-connection write-buffer high watermark in bytes; past it the
  /// connection stops reading until the client drains below half.
  std::size_t max_wbuf = 256 * 1024;
  /// Longest accepted request line (text v2); longer lines answer
  /// bad_request.
  std::size_t max_line = LineFramer::kDefaultMaxLine;
  /// Largest accepted binary frame (v3); a bigger length prefix answers
  /// bad_request and closes — the hostile length is never buffered.
  std::size_t max_frame = kDefaultMaxFrame;
  /// Install a signalfd for SIGTERM/SIGINT and drain gracefully on
  /// either. The caller must block both signals in every thread BEFORE
  /// spawning any (schedule_server does; in-process tests use stop()).
  bool handle_signals = false;
  /// Prometheus scrape endpoint: -1 = no endpoint, 0 = ephemeral port
  /// (read back via Server::metrics_port()), otherwise the port to
  /// bind. Serves `GET /metrics` on the server's own I/O thread — a
  /// scrape and the request path never race.
  int metrics_port = -1;
  /// Bind address of the scrape endpoint (loopback by default — opening
  /// the metrics port to the network is a deliberate act).
  std::string metrics_bind = "127.0.0.1";
  /// Slow-request log threshold in milliseconds: a request whose
  /// accept-to-flush time exceeds it logs its full stage breakdown to
  /// stderr. 0 = disabled.
  double slow_ms = 0.0;
  /// Structured event-log sink: a file path (opened O_APPEND) or "-"
  /// for stdout. Empty = disabled. Rare operational events (drain,
  /// queue_full, slow requests) emit one JSON line each, carrying the
  /// propagated trace id when the request had one. Process-wide: the
  /// first server to open it wins; see obs/event_log.hpp.
  std::string log_json;
  /// Directory `trace dump=<file>` may write into. Empty (the default)
  /// disables dumps entirely: the verb names a server-side file, and an
  /// unauthenticated network client must never choose where the server
  /// writes. When set, dump paths are resolved inside this directory —
  /// absolute paths and ".." components are rejected.
  std::string trace_dir;
  /// Directory `file:` tree specs may read from. Empty (the default)
  /// refuses file: specs entirely — the spec names a server-side file,
  /// and an unauthenticated network client must never choose what the
  /// server opens. When set, spec paths are resolved inside this
  /// directory exactly like trace_dir confines trace dumps.
  std::string tree_dir;
  /// Upper bound on the node count a generator spec (random:/synthetic:/
  /// grid:) may request; larger requests answer bad_request before any
  /// allocation. 0 = unlimited (trusted networks only — a client could
  /// request a multi-gigabyte tree in one line).
  std::uint64_t max_spec_nodes = 2'000'000;
  /// Upper bound on the on-disk size of a `file:` tree spec, checked
  /// BEFORE the file is read (max_spec_nodes bounds the parsed tree;
  /// this bounds the read itself). 0 = unlimited.
  std::uint64_t max_spec_bytes = 16 << 20;
  /// Hard ceiling on the graceful drain, in milliseconds: a SIGTERM/
  /// stop() drain normally waits for every client to read its last
  /// answers, but a client that never reads would hold the process up
  /// forever. Past the timeout the remaining connections are closed
  /// (their queued tickets cancelled) and the drain completes. 0 = wait
  /// forever (the pre-timeout behavior).
  double drain_timeout_ms = 0.0;
};

/// Monotonic server counters (I/O-thread state, reported by the
/// server's collector to `stats` and /metrics).
struct ServerCounters : SessionCounters {
  std::uint64_t submitted = 0;  ///< tickets submitted to the service
};

class Server : private SessionHandler {
 public:
  /// Binds the listener (throws std::system_error on failure) but does
  /// not serve yet.
  Server(SchedulingService& service, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return frontend_.port(); }
  /// Printable endpoint: "<bind>:<port>" or "unix:<path>".
  [[nodiscard]] const std::string& address() const {
    return frontend_.address();
  }
  [[nodiscard]] const ServerConfig& config() const { return config_; }
  /// The bound scrape port; 0 when config.metrics_port is -1 (no
  /// endpoint). Readable right after construction — the bind happens in
  /// the constructor, like the main listener's.
  [[nodiscard]] std::uint16_t metrics_port() const {
    return metrics_http_ ? metrics_http_->port() : 0;
  }

  /// Serves until stop()/SIGTERM, then drains (see file comment).
  /// Blocks; the calling thread becomes the I/O thread.
  void run();

  /// Begins a graceful drain from any thread; run() returns once every
  /// accepted request is answered or cancelled and buffers are flushed.
  void stop();

 private:
  /// Heterogeneous hasher so a string_view spec (v3's zero-copy path)
  /// probes the memo without materializing a std::string first.
  struct SpecHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view spec) const {
      return std::hash<std::string_view>{}(spec);
    }
  };
  /// A submitted ticket's window entry: (session id, window key).
  struct TicketKey {
    std::uint64_t session = 0;
    std::uint64_t key = 0;
    bool operator==(const TicketKey&) const = default;
  };
  struct TicketKeyHash {
    std::size_t operator()(const TicketKey& k) const;
  };

  // --- SessionHandler (I/O thread only) -------------------------------
  /// Resolves the spec, answers a cache hit on the spot, submits
  /// anything else as a ticket.
  std::optional<ServiceError> schedule(Session& session, std::uint64_t key,
                                       const RequestView& req,
                                       const TraceContext& ctx) override;
  /// Cancels the entry's ticket iff it is still queued.
  bool cancel(Session& session, std::uint64_t key) override;
  /// Writes the Chrome trace synchronously and answers at once.
  std::optional<ResponseLine> trace_dump(Session& session, std::uint64_t key,
                                         std::string path) override;
  /// A response's last byte reached the kernel: record the transport
  /// stage histograms (accept-to-flush, serialize-to-flush by priority
  /// class), the net-layer trace spans, and, past config.slow_ms, log
  /// the stage breakdown (stderr + structured event log).
  void record_flushed(const ResponseTiming& timing) override;
  /// The drain also waits for every submitted ticket's completion.
  [[nodiscard]] bool drained() const override { return outstanding_ == 0; }

  /// Spec -> interned handle, memoized server-wide (all parsing happens
  /// on the I/O thread, so the memo needs no lock). The lookup is
  /// copy-free; the spec string is owned only on first sight. Failures
  /// are typed values: kBadRequest for an unresolvable spec, kStoreFull
  /// (via try_intern) past the store budget.
  Result<TreeHandle, ServiceError> intern_spec(std::string_view spec);
  /// Creates the transport histograms and registers the collector that
  /// reports ServerCounters through the service's registry, to `stats`
  /// and /metrics alike. The collector reads plain I/O-thread state;
  /// that is sound because every snapshot consumer in this process (the
  /// `stats` verb, the /metrics endpoint) runs on the loop thread too.
  void init_metrics();

  SchedulingService& service_;
  ServerConfig config_;
  EventLoop loop_;
  ServerCounters counters_;
  std::unordered_map<std::string, TreeHandle, SpecHash, std::equal_to<>>
      spec_memo_;
  /// Submitted tickets not yet settled on the loop thread, for cancel.
  std::unordered_map<TicketKey, Ticket, TicketKeyHash> tickets_;
  /// Tickets submitted whose completion has not yet been processed on
  /// the loop thread. The drain waits for zero, which guarantees no
  /// Ticket::on_complete callback can touch a dead Server.
  std::uint64_t outstanding_ = 0;

  /// Collector liveness guard: the counters' collector registered with
  /// the service's registry bails once this server is gone, so a
  /// registry that outlives the server stays safe to snapshot.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  /// Transport stage histograms (owned by the service's registry).
  /// h_write_stall_[kPriorityClasses] is the class="all" aggregate that
  /// carries the stats-verb key.
  obs::Histogram* h_net_e2e_ = nullptr;
  obs::Histogram* h_write_stall_[kPriorityClasses + 1] = {};
  /// Per-class accept-to-flush histograms (class="..." labels beside
  /// the unlabeled aggregate above). Their sliding windows ARE the
  /// per-class rolling p99 the /metrics `_window` gauges export.
  obs::Histogram* h_e2e_class_[kPriorityClasses] = {};

  /// Declared after the state its sessions call into, so it goes first.
  Frontend frontend_;
  std::unique_ptr<MetricsHttp> metrics_http_;
};

}  // namespace treesched::net
