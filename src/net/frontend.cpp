#include "net/frontend.hpp"

#include <signal.h>
#include <sys/epoll.h>
#include <sys/signalfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <limits>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/event_log.hpp"
#include "util/cli.hpp"

namespace treesched::net {

namespace {

/// SIGTERM and SIGINT: the signals that begin a drain.
sigset_t drain_signals() {
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  return mask;
}

/// The check on the shared settings, made before anything binds: a
/// zero window would answer every schedule request queue_full.
FrontendConfig checked(FrontendConfig config) {
  if (config.session.max_pending == 0) {
    throw std::invalid_argument("max_pending (--max-pending) must be >= 1");
  }
  return config;
}

}  // namespace

FrontendConfig parse_frontend_flags(const CliArgs& args) {
  FrontendConfig c;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto size = [&](const char* flag, std::size_t fallback) {
    return static_cast<std::size_t>(
        args.get_int(flag, static_cast<std::int64_t>(fallback), 0, kMax));
  };
  // Byte-sized settings are spelled in KiB on the command line, bounded
  // so the shift cannot overflow.
  const auto kib = [&](const char* flag, std::size_t fallback) {
    return static_cast<std::size_t>(args.get_int(
               flag, static_cast<std::int64_t>(fallback >> 10), 0,
               kMax >> 10))
           << 10;
  };
  c.listen.port = static_cast<std::uint16_t>(
      args.get_int("port", c.listen.port, 0, 65535));
  c.listen.bind = args.get("bind", c.listen.bind);
  c.max_conns = size("max-conns", c.max_conns);
  c.session.max_pending = size("max-pending", c.session.max_pending);
  c.session.max_wbuf = kib("max-wbuf-kb", c.session.max_wbuf);
  c.session.max_frame = kib("max-frame-kb", c.session.max_frame);
  c.session.trace_dir = args.get("trace-dir", c.session.trace_dir);
  c.log_json = args.get("log-json", c.log_json);
  c.drain_timeout_ms = args.get_double("drain-timeout-ms", c.drain_timeout_ms);
  c.metrics_port = static_cast<int>(
      args.get_int("metrics-port", c.metrics_port, -1, 65535));
  c.handle_signals = true;
  return c;
}

void block_drain_signals() {
  const sigset_t mask = drain_signals();
  if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
    throw std::runtime_error("pthread_sigmask failed");
  }
}

Frontend::Frontend(EventLoop& loop, SessionHandler& handler,
                   SessionCounters& counters, obs::MetricsRegistry& registry,
                   FrontendConfig config, TierWording wording)
    : loop_(loop),
      handler_(handler),
      counters_(counters),
      registry_(registry),
      config_(checked(std::move(config))),
      wording_(std::move(wording)),
      listener_(config_.listen),
      metrics_http_(config_.metrics_port < 0
                        ? nullptr
                        : std::make_unique<MetricsHttp>(
                              loop_, registry_,
                              ListenerConfig{
                                  .bind = config_.metrics_bind,
                                  .port = static_cast<std::uint16_t>(
                                      config_.metrics_port),
                                  .unix_path = {}})) {
  if (!config_.log_json.empty() && !obs::EventLog::global().enabled()) {
    std::string error;
    if (!obs::EventLog::global().open(config_.log_json, error)) {
      throw std::system_error(std::make_error_code(std::errc::io_error),
                              "cannot open --log-json sink: " + error);
    }
  }
  // Windowed SLO error ratio, one gauge per priority class: errors over
  // answers across the sliding last-minute window (0 when idle). The
  // slots are loop-thread state like the counters; every snapshot
  // consumer (the stats verb, the /metrics endpoint) runs on that
  // thread too.
  registry_.register_collector(
      [this, alive = std::weak_ptr<bool>(alive_)](obs::RegistrySnapshot& out) {
        if (alive.expired()) return;
        for (int c = 0; c <= kPriorityClasses; ++c) {
          const char* label = c == kPriorityClasses
                                  ? "all"
                                  : to_string(static_cast<Priority>(c));
          const std::uint64_t total = slo_answers_[c].windowed();
          const std::uint64_t errors = slo_errors_[c].windowed();
          out.samples.push_back(obs::MetricSample{
              wording_.slo_metric, std::string("class=\"") + label + "\"",
              "Errored share of answers over the sliding last-minute window",
              obs::MetricKind::kGauge,
              total == 0 ? 0.0
                         : static_cast<double>(errors) /
                               static_cast<double>(total),
              ""});
        }
      });
}

Frontend::~Frontend() {
  *alive_ = false;
  if (signal_fd_ >= 0) ::close(signal_fd_);
  if (drain_timer_fd_ >= 0) ::close(drain_timer_fd_);
}

void Frontend::start() {
  loop_.add(listener_.fd(), EPOLLIN, [this](std::uint32_t) { accept_ready(); });
  listening_ = true;
  if (metrics_http_) metrics_http_->start();
  if (!config_.handle_signals) return;
  const sigset_t mask = drain_signals();
  signal_fd_ = ::signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC);
  if (signal_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "signalfd");
  }
  loop_.add(signal_fd_, EPOLLIN, [this](std::uint32_t) {
    signalfd_siginfo info;
    while (::read(signal_fd_, &info, sizeof(info)) > 0) {
    }
    begin_drain();
  });
}

void Frontend::finish() {
  if (metrics_http_) metrics_http_->stop();
  for (int* fd : {&signal_fd_, &drain_timer_fd_}) {
    if (*fd < 0) continue;
    loop_.remove(*fd);
    ::close(*fd);
    *fd = -1;
  }
}

void Frontend::accept_ready() {
  listener_.accept_ready([this](int fd) {
    if (draining_) {
      ::close(fd);
      return;
    }
    if (sessions_.size() >= config_.max_conns) {
      ++counters_.rejected_conns;
      // Best-effort courtesy line: a one-shot write on a fresh socket
      // virtually always fits the send buffer.
      const std::string text =
          format_response_line(error_answer(
              ErrorCode::kQueueFull,
              wording_.tier + " at max connections (" +
                  std::to_string(config_.max_conns) + ")")) +
          "\n";
      (void)::send(fd, text.data(), text.size(), MSG_NOSIGNAL);
      ::close(fd);
      return;
    }
    ++counters_.accepted;
    const std::uint64_t id = next_id_++;
    sessions_.emplace(id, std::make_unique<Session>(*this, fd, id));
  });
}

Session* Frontend::find(std::uint64_t id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void Frontend::defer_close(std::uint64_t id) {
  loop_.post([this, id] {
    sessions_.erase(id);  // the destructor cancels and closes
    if (draining_) maybe_finish();
  });
}

void Frontend::begin_drain() {
  if (draining_) return;
  draining_ = true;
  obs::EventLog::global().emit(
      "drain_begin", 0,
      {obs::EventLog::Field::u64("conns", sessions_.size())});
  if (listening_) {
    loop_.remove(listener_.fd());
    listening_ = false;
  }
  arm_drain_timer();
  for (auto& [id, session] : sessions_) session->begin_drain();
  maybe_finish();
}

void Frontend::arm_drain_timer() {
  if (config_.drain_timeout_ms <= 0.0 || drain_timer_fd_ >= 0) return;
  drain_timer_fd_ =
      ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (drain_timer_fd_ < 0) return;
  const auto ns = static_cast<std::uint64_t>(config_.drain_timeout_ms * 1e6);
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(ns / 1'000'000'000ULL);
  spec.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000ULL);
  if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
    spec.it_value.tv_nsec = 1;
  }
  ::timerfd_settime(drain_timer_fd_, 0, &spec, nullptr);
  loop_.add(drain_timer_fd_, EPOLLIN, [this](std::uint32_t) {
    std::uint64_t expirations = 0;
    while (::read(drain_timer_fd_, &expirations, sizeof(expirations)) > 0) {
    }
    // Snapshot the ids: defer_close posts erasures, and destructors
    // must not run while we iterate the map.
    std::vector<std::uint64_t> ids;
    ids.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) ids.push_back(id);
    for (const std::uint64_t id : ids) defer_close(id);
  });
}

void Frontend::maybe_finish() {
  if (sessions_.empty() && handler_.drained()) {
    obs::EventLog::global().emit("drain_complete", 0, {});
    loop_.stop();
  }
}

void Frontend::note_answer(int cls, bool ok, std::uint64_t now_ns) {
  if (cls < 0 || cls > kPriorityClasses) return;
  slo_answers_[cls].add_at(1, now_ns);
  if (!ok) slo_errors_[cls].add_at(1, now_ns);
  if (cls == kPriorityClasses) return;
  slo_answers_[kPriorityClasses].add_at(1, now_ns);
  if (!ok) slo_errors_[kPriorityClasses].add_at(1, now_ns);
}

}  // namespace treesched::net
