#pragma once
// The client-facing side both tiers share (src/net/): its settings, one
// struct and one flag reader for the server and the router alike, and
// its lifecycle — the listener and its max_conns greeting, the live
// sessions, the graceful drain and its drain_timeout_ms ceiling, the
// SIGTERM/SIGINT signalfd, the --log-json sink, the windowed SLO
// error-ratio gauges, the /metrics endpoint, and the tier's metrics
// registry, which its sessions answer `stats` from. The server
// (net/server.hpp) and the cluster router (cluster/router.hpp) each own
// one and hand it their SessionHandler; everything here runs on the
// tier's event-loop thread. The tree-spec bounds are not shared: only a
// server resolves specs (ServerConfig, net/server.hpp).
//
// Drain: the listener closes, every session stops reading and closes
// once its window is answered and flushed, and the loop stops when no
// session is left and the handler reports drained(). Past
// drain_timeout_ms (0 = wait forever) the remaining sessions are closed,
// which cancels their unsettled requests, so a client that never reads
// cannot hold the process up.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/event_loop.hpp"
#include "net/listener.hpp"
#include "net/metrics_http.hpp"
#include "net/session.hpp"
#include "obs/metrics.hpp"

namespace treesched {
class CliArgs;
}  // namespace treesched

namespace treesched::net {

/// Every setting the server and the router take from a client-facing
/// flag, declared once (parse_frontend_flags reads them for both
/// binaries). The defaults are the flags' defaults.
struct FrontendConfig {
  /// TCP bind address and port (0 = kernel-assigned, read back through
  /// port()), or a unix-domain socket path. "0.0.0.0" opens the listener
  /// to the network; the loopback default keeps it local.
  ListenerConfig listen;
  /// Accepted-connection bound; excess connections are greeted with one
  /// queue_full error line and closed.
  std::size_t max_conns = 256;
  /// Per-session limits: the pending window (>= 1), the write-buffer
  /// watermark, the line and frame bounds, and the trace directory.
  SessionConfig session;
  /// Install a signalfd for SIGTERM/SIGINT and drain on either. The
  /// caller must block both signals in every thread before spawning any
  /// (block_drain_signals); in-process tests stop the tier instead.
  bool handle_signals = false;
  /// Structured event-log sink: a file path (opened O_APPEND) or "-"
  /// for stdout; empty = none. Process-wide: the first tier to open it
  /// wins (see obs/event_log.hpp).
  std::string log_json;
  /// Hard ceiling on the graceful drain in ms; 0 = wait forever.
  double drain_timeout_ms = 0.0;
  /// Prometheus scrape endpoint: -1 = none, 0 = ephemeral port (read
  /// back through metrics_port()), otherwise the port to bind. It serves
  /// `GET /metrics` from the tier's registry on the tier's own loop.
  int metrics_port = -1;
  /// Bind address of the scrape endpoint (loopback by default: opening
  /// it to the network is a deliberate act).
  std::string metrics_bind = "127.0.0.1";
};

/// Reads the client-facing flags both schedule_server and
/// schedule_router take — --port --bind --max-conns --max-pending
/// --max-wbuf-kb --max-frame-kb --metrics-port --trace-dir --log-json
/// --drain-timeout-ms — each defaulting to FrontendConfig's default.
/// A number outside its flag's range (a port past 65535, a negative
/// size) throws std::invalid_argument naming the flag. Sets
/// handle_signals: both binaries drain on SIGTERM/SIGINT.
FrontendConfig parse_frontend_flags(const CliArgs& args);

/// Blocks SIGTERM/SIGINT in the calling thread, so every thread spawned
/// afterwards inherits the mask and only a Frontend's signalfd sees
/// them. Call before any thread exists. Throws std::runtime_error.
void block_drain_signals();

/// How a tier names itself: fixed per tier, not a setting.
struct TierWording {
  /// "server" or "router": names the tier in refusals.
  std::string tier;
  /// Completes "request already <started> or answered" in the ack of a
  /// cancel the handler can no longer honour.
  std::string started;
  /// Name of the windowed error-ratio gauge (one sample per class).
  std::string slo_metric;
};

/// SLO class of an answer that counts under `all` only (grammar errors,
/// protocol violations, cancel acks).
inline constexpr int kSloAllOnly = kPriorityClasses;
/// SLO class of an answer that does not count (ping, stats, trace).
inline constexpr int kSloNone = -1;

class Frontend {
 public:
  /// Refuses max_pending 0 (std::invalid_argument; the one check made
  /// on `config`), binds the listener and the scrape endpoint and opens
  /// the event-log sink (all three throw std::system_error), and
  /// registers the SLO gauges with `registry`; does not serve yet.
  Frontend(EventLoop& loop, SessionHandler& handler,
           SessionCounters& counters, obs::MetricsRegistry& registry,
           FrontendConfig config, TierWording wording);
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] const std::string& address() const {
    return listener_.address();
  }
  /// The bound scrape port; 0 when config.metrics_port is -1 (no
  /// endpoint). Readable right after construction.
  [[nodiscard]] std::uint16_t metrics_port() const {
    return metrics_http_ ? metrics_http_->port() : 0;
  }
  [[nodiscard]] const FrontendConfig& config() const { return config_; }
  [[nodiscard]] const TierWording& wording() const { return wording_; }

  /// Starts accepting, serving /metrics and, with handle_signals,
  /// watching the signals.
  void start();
  /// After the loop returned (on its thread): closes the scrape
  /// endpoint and releases the signalfd and drain timer.
  void finish();

  void begin_drain();
  /// Stops the loop once the drain has nothing left to wait for.
  void maybe_finish();
  [[nodiscard]] bool draining() const { return draining_; }

  /// Posts the removal of session `id` (idempotent; safe from inside
  /// the session's own methods).
  void defer_close(std::uint64_t id);
  /// The live session `id`, or nullptr once it is gone.
  [[nodiscard]] Session* find(std::uint64_t id);
  [[nodiscard]] std::size_t sessions() const { return sessions_.size(); }

  // --- Session-facing surface ----------------------------------------
  EventLoop& loop() { return loop_; }
  SessionHandler& handler() { return handler_; }
  SessionCounters& counters() { return counters_; }
  /// The tier's registry: `stats` answers with its snapshot, the
  /// /metrics endpoint renders the same one.
  obs::MetricsRegistry& registry() { return registry_; }
  /// SLO accounting, one rule for both tiers: the answer to a parsed
  /// schedule request counts under its priority class and under `all`,
  /// whatever produced it; kSloAllOnly answers count under `all` only;
  /// kSloNone answers not at all.
  void note_answer(int cls, bool ok, std::uint64_t now_ns);

 private:
  void accept_ready();
  void arm_drain_timer();

  EventLoop& loop_;
  SessionHandler& handler_;
  SessionCounters& counters_;
  obs::MetricsRegistry& registry_;
  const FrontendConfig config_;
  const TierWording wording_;
  Listener listener_;
  std::unique_ptr<MetricsHttp> metrics_http_;
  bool listening_ = false;
  int signal_fd_ = -1;
  int drain_timer_fd_ = -1;
  bool draining_ = false;
  std::unordered_map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::uint64_t next_id_ = 1;

  /// Sliding last-minute answers / errors per class ([kPriorityClasses]
  /// = all), read by the error-ratio gauge collector.
  obs::SlidingCounter slo_answers_[kPriorityClasses + 1];
  obs::SlidingCounter slo_errors_[kPriorityClasses + 1];
  /// Collector liveness guard: the gauges bail once this is gone.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace treesched::net
