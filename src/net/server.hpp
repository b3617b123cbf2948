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
// Settings: the client-facing ones (listener, connection and session
// limits, drain ceiling, event log, /metrics endpoint) are the
// FrontendConfig both tiers share (net/frontend.hpp); the server adds
// the slow-request log threshold and the spec bounds — only the server
// resolves tree specs (a router forwards them as text).
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

#include "campaign/dataset.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/frontend.hpp"
#include "net/session.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"

namespace treesched::net {

struct ServerConfig {
  /// The client-facing settings, shared with the router.
  FrontendConfig frontend;
  /// Slow-request log threshold in milliseconds: a request whose
  /// accept-to-flush time exceeds it logs its full stage breakdown to
  /// stderr and the event log. 0 = disabled.
  double slow_ms = 0.0;
  /// The bounds every client tree spec resolves under (tree_from_spec).
  /// The default is the network-safe one: `file:` specs refused — the
  /// spec names a file on this host, and an unauthenticated network
  /// client must never choose what the server opens — generator specs
  /// capped at 2,000,000 nodes before any allocation, and a file's size
  /// at 16 MiB before it is read. schedule_server confines file: specs
  /// to --tree-dir; the stdin front-end, whose only client is its own
  /// input, passes TreeSpecOptions{} (any path, no caps).
  TreeSpecOptions spec{.max_nodes = 2'000'000,
                       .allow_file = false,
                       .file_dir = {},
                       .max_file_bytes = 16 << 20};
};

/// Monotonic server counters (I/O-thread state, reported by the
/// server's collector to `stats` and /metrics).
struct ServerCounters : SessionCounters {
  std::uint64_t submitted = 0;  ///< tickets submitted to the service
};

class Server : private SessionHandler {
 public:
  /// Binds the listener (throws std::system_error on failure; a
  /// rejected config throws std::invalid_argument, see Frontend) but
  /// does not serve yet.
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
  /// The bound scrape port; 0 without an endpoint (see Frontend).
  [[nodiscard]] std::uint16_t metrics_port() const {
    return frontend_.metrics_port();
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
  /// copy-free; the spec string is owned only on first sight. Specs
  /// resolve under config.spec. Failures are typed values:
  /// kBadRequest for an unresolvable spec, kStoreFull (via try_intern)
  /// past the store budget.
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
};

}  // namespace treesched::net
