#pragma once
// The client-facing lifecycle both tiers share (src/net/): the listener
// and its max_conns greeting, the live sessions, the graceful drain and
// its drain_timeout_ms ceiling, the SIGTERM/SIGINT signalfd, the
// --log-json sink, the windowed SLO error-ratio gauges, and the tier's
// metrics registry, which its sessions answer `stats` from. The server
// (net/server.hpp) and the cluster router (cluster/router.hpp) each own
// one and hand it their SessionHandler; everything here runs on the
// tier's event-loop thread.
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
#include "net/session.hpp"
#include "obs/metrics.hpp"

namespace treesched::net {

struct FrontendConfig {
  ListenerConfig listen;
  /// Accepted-connection bound; excess connections are greeted with one
  /// queue_full error line and closed.
  std::size_t max_conns = 256;
  SessionConfig session;
  /// Install a signalfd for SIGTERM/SIGINT and drain on either.
  bool handle_signals = false;
  /// Structured event-log sink ("-" = stdout, empty = none).
  std::string log_json;
  double drain_timeout_ms = 0.0;
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
  /// Binds the listener and opens the event-log sink (both throw
  /// std::system_error) and registers the SLO gauges with `registry`;
  /// does not serve yet.
  Frontend(EventLoop& loop, SessionHandler& handler,
           SessionCounters& counters, obs::MetricsRegistry& registry,
           FrontendConfig config);
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] const std::string& address() const {
    return listener_.address();
  }

  /// Starts accepting and, with handle_signals, watching the signals.
  void start();
  /// After the loop returned: releases the signalfd and drain timer.
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
  [[nodiscard]] const SessionConfig& session_config() const {
    return config_.session;
  }
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
  Listener listener_;
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
