#pragma once
// Cluster router (src/cluster/): a protocol-transparent front-end that
// shards the scheduling service across N backend schedule_server nodes
// by the text of each request's tree spec, so every request for the
// same spec lands on the same node — and its warm result cache — no
// matter which client sent it. Clients speak the unchanged text-v2 /
// binary-v3 protocols to the router exactly as they would to one node;
// the cluster is invisible except for being larger.
//
//   Client ──v2/v3──> Session ──route()──> Upstream ──v3──> node
//      ^                 |   ^                    │
//      └─── response ────┘   └─── deliver() <─────┘ (id remapped)
//
// The client side is the server's: each client is a net::Session
// (net/session.hpp), and a net::Frontend runs accept, drain, signals
// and /metrics under the same FrontendConfig and flags as a node
// (RouterConfig::frontend); the rest of RouterConfig shapes the ring,
// the upstream pipes and the health checks. The router is the
// SessionHandler, and its answers differ from a node's only where
// routing demands it:
//  * a schedule request never touches a tree or a scheduler here — key
//    the spec text, route, wait for the node's answer, whose upstream
//    id is replaced by the client's own tag. The node resolves, bounds
//    and interns the spec exactly as for a direct client, so a
//    malformed spec is answered by the node, with the node's typed
//    error;
//  * `cancel` only reaches work the router still holds: a forward still
//    queued router-side is removed and answered `cancelled`; one already
//    on the wire acks the untagged "already forwarded or answered" line
//    — the router never forwards cancels upstream (see cancel());
//  * ping / stats / trace answer locally: ping proves THIS hop alive,
//    stats aggregates router + backend counters, trace start/stop also
//    reach every live backend and a dump merges all of their rings.
//
// Routing: the key is spec_key(tree spec) (cluster/ring.hpp), a hash of
// the raw spec text — the router builds no tree and stores none. The
// key walks the consistent-hash ring from its point: the first live
// node under the bounded-load threshold
// ceil(load_factor * (total_in_flight + 1) / live_nodes) takes the
// request, where a node's load counts its schedule forwards only. The
// bound keeps a hot spec from melting its primary while still sending
// nearly every key to its ring-deterministic home. Identical specs, not
// identical trees, share a node: two spellings of one tree may compute
// on two nodes, with bit-identical answers.
//
// Like the single-node server, the router is ONE epoll I/O thread and
// never computes: client sockets, backend sockets, the health timer,
// the metrics endpoint, and the signal fd all ride one EventLoop, so
// every structure here is plain loop-thread state — no locks anywhere.
//
// Failure semantics (the part worth reading twice): a node death —
// connect refused, socket error, EOF, or a ping overdue past
// ping_timeout_ms — hands every in-flight and queued forward back to
// the router. Each is retried on the next live ring alternate (the
// requests are deterministic pure functions of the request line, so
// re-execution is safe) up to `retries` times, then answered with the
// typed node_unavailable error. Clients always get an answer: typed
// errors, never a hang, never a dropped response. The dead node
// reconnects with backoff and resumes taking its arc of the ring.
//
// Observability: one collector reports the router's numbers through its
// metrics registry, so `stats` and --metrics-port (GET /metrics,
// Prometheus text) read the same samples. The stats line carries the
// router's own counters, the per-node ones (nodeK_routed, nodeK_up,
// ...), a backend_-prefixed aggregate summed over each node's
// periodically-polled stats (stats only), and the upstream latency
// summary (upstream_count, upstream_window_count,
// upstream_p50_us/_p90_us/_p99_us).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/ring.hpp"
#include "cluster/upstream.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/frontend.hpp"
#include "net/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/errors.hpp"
#include "service/request.hpp"

namespace treesched::cluster {

struct RouterConfig {
  /// The client-facing side, the same settings and flags as the
  /// single-node server's (net/frontend.hpp). Its limits bound clients
  /// only: the router's own frames from its nodes are bounded by the
  /// protocol default (net::kDefaultMaxFrame), whatever max_frame says.
  net::FrontendConfig frontend;
  /// Backend endpoints, "host:port" each. At least one; duplicates are
  /// rejected (one ring identity = one socket).
  std::vector<std::string> nodes;
  /// Virtual points per node on the consistent-hash ring.
  int vnodes = 64;
  /// Bounded-load factor c: a node already carrying more than
  /// ceil(c * (total + 1) / live) schedule forwards (in flight or
  /// queued) is skipped for the next ring alternate. Larger = stickier
  /// placement, spikier load.
  double load_factor = 1.25;
  /// Per-node forwarding window, >= 1: at most this many schedule
  /// forwards in flight on one backend socket (health and stats probes
  /// do not count); excess queues router-side.
  std::size_t upstream_window = 128;
  /// Per-node queue bound; a full queue makes the node ineligible and,
  /// with every alternate also full, answers queue_full (backpressure).
  std::size_t upstream_queue = 1024;
  /// Per-node socket write-buffer bound: past it queued forwards stay
  /// queued (a backend that stops reading stalls its queue, not us).
  std::size_t upstream_max_wbuf = 1 << 20;
  /// Retry-on-alternate budget after a node death. The forwarded
  /// requests are deterministic (same line -> same answer), so
  /// re-execution on another node is safe.
  int retries = 1;
  /// Health cadence: ping each node this often; a node whose pong is
  /// ping_timeout_ms overdue is declared dead. Reconnects back off by
  /// reconnect_backoff_ms.
  double health_interval_ms = 250.0;
  double ping_timeout_ms = 2000.0;
  double reconnect_backoff_ms = 500.0;
  /// Every this many health ticks, poll each node's `stats` for the
  /// aggregated stats verb. 0 disables polling.
  unsigned stats_poll_ticks = 4;
};

/// Monotonic router counters (loop-thread state, reported by the
/// router's collector to `stats` and /metrics).
struct RouterCounters : net::SessionCounters {
  std::uint64_t forwarded = 0;        ///< forwards handed to an upstream
  std::uint64_t responses = 0;        ///< backend answers delivered
  std::uint64_t retried = 0;          ///< forwards re-routed after a death
  std::uint64_t node_unavailable = 0; ///< requests answered with the typed
                                      ///< node_unavailable error
  std::uint64_t queue_full = 0;       ///< requests refused by backpressure
  std::uint64_t node_failures = 0;    ///< node-death events
  std::uint64_t connects = 0;         ///< successful backend connects
  std::uint64_t orphan_responses = 0; ///< backend answers with no waiting
                                      ///< forward (late after a retry)
  std::uint64_t cancelled = 0;        ///< forwards cancelled while queued
};

class Router : private net::SessionHandler {
 public:
  /// Binds the client listener and resolves the node list (throws
  /// std::invalid_argument / std::system_error; the client-facing
  /// checks are Frontend's) but does not serve yet.
  explicit Router(RouterConfig config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  [[nodiscard]] std::uint16_t port() const { return frontend_.port(); }
  [[nodiscard]] const std::string& address() const {
    return frontend_.address();
  }
  [[nodiscard]] const RouterConfig& config() const { return config_; }
  [[nodiscard]] std::uint16_t metrics_port() const {
    return frontend_.metrics_port();
  }
  /// The router's own registry (scraped by --metrics-port).
  [[nodiscard]] obs::MetricsRegistry& registry() { return registry_; }

  /// Serves until stop()/SIGTERM, then drains: the listener closes,
  /// every accepted request is answered (by a backend or a typed
  /// error), buffers flush, and run() returns. Blocks; the calling
  /// thread becomes the I/O thread.
  void run();

  /// Begins a graceful drain from any thread.
  void stop();

 private:
  friend class Upstream;

  // --- SessionHandler (loop thread only) -------------------------------
  /// Keys the spec text and routes the canonical forward line.
  std::optional<ServiceError> schedule(net::Session& session,
                                       std::uint64_t key,
                                       const RequestView& req,
                                       const net::TraceContext& ctx) override;
  /// Pulls a still-queued forward back from whichever node holds it.
  /// False once it is on the wire (or already answered) — then only the
  /// backend could stop it, and the router deliberately never forwards
  /// cancels: a failed remote cancel acks UNTAGGED, which is
  /// unattributable on a multiplexed upstream connection shared by many
  /// clients. Cancel is rare and the node list short, so every node is
  /// asked.
  bool cancel(net::Session& session, std::uint64_t key) override;
  /// Broadcasts `trace start`/`trace stop` to every live backend
  /// (fire-and-forget; nodes that are down catch up on reconnect when
  /// tracing is still enabled).
  void trace_switched(bool on) override;
  /// Per node, the `trace pull`s lost to node deaths
  /// (nodeK_pull_failures) — what a partial merged dump traces back to.
  void trace_status(
      std::vector<std::pair<std::string, std::uint64_t>>& out) override;
  /// Kicks off one merged cluster dump: pulls every live backend's span
  /// ring, merges with the router's own, writes Chrome JSON to `path`,
  /// then settles window entry `key` (synchronously when no backend is
  /// live). A second dump while one is in flight is refused at once.
  std::optional<ResponseLine> trace_dump(net::Session& session,
                                         std::uint64_t key,
                                         std::string path) override;

  net::EventLoop& loop() { return loop_; }
  RouterCounters& counters() { return counters_; }
  /// Routes one forward: bounded-load ring walk over live nodes, then
  /// Upstream::enqueue. Returns the typed refusal (kNodeUnavailable when
  /// no node is up, kQueueFull when every live alternate is at its queue
  /// bound), or nullopt once a node holds the forward.
  std::optional<ServiceError> route(Forward fwd);

  // --- Upstream-facing surface (loop thread only) ---------------------
  /// Upstream wire ids, unique across every backend socket for the
  /// router's lifetime — a retried forward gets a fresh uid, so a slow
  /// answer from the first attempt can never alias the second.
  std::uint64_t next_uid() { return next_uid_++; }
  /// A backend answered forward `fwd`: record latency, deliver to the
  /// client connection (dropped if the client is gone).
  void on_upstream_response(const Forward& fwd, ResponseLine&& resp);
  /// Forward `fwd`'s node died before answering: retry on the next live
  /// ring alternate, or settle the typed node_unavailable error.
  void on_upstream_failed(Forward&& fwd);
  /// Node `node` answered a `trace pull`: decode its spans into the
  /// in-flight merged dump (no-op when none is waiting on it).
  void on_trace_pull(std::size_t node,
                     std::vector<std::pair<std::string, std::uint64_t>>&&
                         pairs);
  /// Node `node` died with a `trace pull` outstanding: count it and let
  /// the in-flight merged dump finish without that node.
  void on_trace_pull_failed(std::size_t node);

  /// Creates the upstream histograms and registers the collector that
  /// reports RouterCounters, the per-node counters and the backend_
  /// sums.
  void init_metrics();
  /// Delivers a router-generated error to a client window entry.
  void settle_error(std::uint64_t conn_id, std::uint64_t key,
                    ErrorCode code, std::string message);
  /// Writes the merged Chrome JSON and settles the dump's client window
  /// entry; called when the last awaited pull answered or failed.
  void finish_trace_dump();

  /// One in-flight merged cluster dump (at most one at a time: the
  /// second `trace dump` gets a typed error instead of interleaving).
  struct TraceDump {
    std::uint64_t conn_id = 0;  ///< client window entry to settle
    std::uint64_t key = 0;
    std::string path;           ///< confined output file
    std::size_t awaiting = 0;   ///< backend pulls not yet answered
    std::size_t pulled = 0;     ///< backend rings merged successfully
    std::size_t pull_failures = 0;  ///< pulls lost to node deaths
    std::vector<obs::ProcessSpans> procs;  ///< router first, then nodes
  };

  RouterConfig config_;
  net::EventLoop loop_;
  obs::MetricsRegistry registry_;
  int health_timer_fd_ = -1;

  HashRing ring_;
  std::vector<std::unique_ptr<Upstream>> upstreams_;
  std::vector<std::uint64_t> routed_;  ///< per-node forwards routed

  RouterCounters counters_;
  std::uint64_t next_uid_ = 1;
  std::uint64_t next_trace_id_ = 1;

  std::unique_ptr<TraceDump> trace_dump_;
  /// Lifetime per-node `trace pull` failures (trace status reports
  /// these as nodeK_pull_failures).
  std::vector<std::uint64_t> trace_pull_failures_;

  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  obs::Histogram* h_upstream_ = nullptr;  ///< forward send -> answer
  /// Per-class upstream-latency histograms; their sliding windows back
  /// the router's rolling per-class p99 gauges.
  obs::Histogram* h_upstream_class_[kPriorityClasses] = {};

  /// Declared after the state its sessions call into, so it goes first.
  net::Frontend frontend_;
};

}  // namespace treesched::cluster
