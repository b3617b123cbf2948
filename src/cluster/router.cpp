#include "cluster/router.hpp"

#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "obs/event_log.hpp"

namespace treesched::cluster {

namespace {

/// "host:port" -> parts. Throws std::invalid_argument so a typo in
/// --nodes fails the process at startup, never at first request.
std::pair<std::string, std::uint16_t> parse_node(const std::string& spec) {
  const auto pos = spec.rfind(':');
  if (pos == std::string::npos || pos == 0 || pos + 1 == spec.size()) {
    throw std::invalid_argument("backend node \"" + spec +
                                "\" is not host:port");
  }
  const std::string host = spec.substr(0, pos);
  int port = 0;
  try {
    port = std::stoi(spec.substr(pos + 1));
  } catch (const std::exception&) {
    port = -1;
  }
  if (port <= 0 || port > 65535) {
    throw std::invalid_argument("backend node \"" + spec +
                                "\" has an invalid port");
  }
  return {host, static_cast<std::uint16_t>(port)};
}

}  // namespace

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      ring_(config_.vnodes),
      frontend_(loop_, *this, counters_, registry_, config_.frontend,
                net::TierWording{
                    .tier = "router",
                    .started = "forwarded",
                    .slo_metric = "treesched_router_slo_error_ratio"}) {
  if (config_.nodes.empty()) {
    throw std::invalid_argument("router needs at least one backend node");
  }
  if (config_.upstream_window == 0) {
    throw std::invalid_argument("upstream_window must be >= 1");
  }
  for (const std::string& spec : config_.nodes) {
    auto [host, port] = parse_node(spec);
    const std::string name = host + ":" + std::to_string(port);
    const std::size_t index = ring_.add(name);
    if (index != upstreams_.size()) {
      throw std::invalid_argument("duplicate backend node " + name);
    }
    upstreams_.push_back(
        std::make_unique<Upstream>(*this, index, std::move(host), port));
    routed_.push_back(0);
    trace_pull_failures_.push_back(0);
  }
  init_metrics();
}

Router::~Router() {
  *alive_ = false;
  if (health_timer_fd_ >= 0) ::close(health_timer_fd_);
}

void Router::init_metrics() {
  // Same collector idiom as the server's: plain loop-thread counters
  // read at snapshot time, sound because every snapshot consumer (the
  // stats verb, the /metrics endpoint) runs on this same loop thread.
  // Samples without a Prometheus name report on the stats line only.
  registry_.register_collector(
      [this, alive = std::weak_ptr<bool>(alive_)](obs::RegistrySnapshot& out) {
        if (alive.expired()) return;
        const RouterCounters& rc = counters_;
        auto sample = [&](const char* name, std::string labels,
                          const char* help, obs::MetricKind kind,
                          std::uint64_t v, std::string key) {
          out.samples.push_back(obs::MetricSample{
              name, std::move(labels), help, kind, static_cast<double>(v),
              std::move(key)});
        };
        auto counter = [&](const char* name, const char* help,
                           std::uint64_t v, const char* key) {
          sample(name, "", help, obs::MetricKind::kCounter, v, key);
        };
        auto gauge = [&](const char* name, const char* help, std::uint64_t v,
                         const char* key) {
          sample(name, "", help, obs::MetricKind::kGauge, v, key);
        };
        auto stat = [&](std::string key, std::uint64_t v) {
          sample("", "", "", obs::MetricKind::kGauge, v, std::move(key));
        };
        counter("treesched_router_accepted_total",
                "Client connections accepted", rc.accepted, "accepted");
        stat("rejected_conns", rc.rejected_conns);
        counter("treesched_router_requests_total", "Client requests framed",
                rc.lines, "lines");
        counter("treesched_router_forwarded_total",
                "Forwards handed to a backend node", rc.forwarded,
                "forwarded");
        counter("treesched_router_responses_total",
                "Backend answers delivered to clients", rc.responses,
                "responses");
        counter("treesched_router_retried_total",
                "Forwards re-routed after a node death", rc.retried,
                "retried");
        counter("treesched_router_node_unavailable_total",
                "Requests answered with the typed node_unavailable error",
                rc.node_unavailable, "node_unavailable");
        counter("treesched_router_queue_full_total",
                "Requests refused by upstream backpressure", rc.queue_full,
                "queue_full");
        counter("treesched_router_node_failures_total",
                "Backend node-death events", rc.node_failures,
                "node_failures");
        stat("connects", rc.connects);
        stat("orphan_responses", rc.orphan_responses);
        stat("cancelled", rc.cancelled);
        stat("v3_conns", rc.v3_conns);
        stat("frames_in", rc.frames_in);
        stat("frames_bad", rc.frames_bad);
        stat("batch_requests", rc.batch_requests);
        counter("treesched_router_parse_errors_total",
                "Requests rejected by the grammar", rc.parse_errors,
                "parse_errors");
        gauge("treesched_router_connections", "Open client connections",
              frontend_.sessions(), "conns");
        stat("nodes", upstreams_.size());
        std::size_t up = 0;
        for (const auto& node : upstreams_) {
          if (node->state() == Upstream::State::kUp) ++up;
        }
        gauge("treesched_router_nodes_up", "Backend nodes currently up", up,
              "nodes_up");
        for (std::size_t i = 0; i < upstreams_.size(); ++i) {
          const Upstream& node = *upstreams_[i];
          const std::string label = "node=\"" + node.name() + "\"";
          const std::string prefix = "node" + std::to_string(i) + "_";
          sample("treesched_router_node_routed_total", label,
                 "Forwards routed to this backend node",
                 obs::MetricKind::kCounter, routed_[i], prefix + "routed");
          stat(prefix + "up", node.state() == Upstream::State::kUp ? 1 : 0);
          stat(prefix + "inflight", node.inflight());
          stat(prefix + "queued", node.queued());
          sample("treesched_router_node_disconnects_total", label,
                 "Death events of this backend node",
                 obs::MetricKind::kCounter, node.disconnects(),
                 prefix + "disconnects");
          sample("treesched_router_node_retries_total", label,
                 "Forwards this node's deaths handed back with retry budget",
                 obs::MetricKind::kCounter, node.retries(),
                 prefix + "retries");
          sample("treesched_router_node_last_error_code", label,
                 "Numeric reason of this node's last death (0 = never died)",
                 obs::MetricKind::kGauge, node.last_error_code(),
                 prefix + "last_error_code");
        }
        // Cluster-wide service view: the last polled stats of every node,
        // summed under a backend_ prefix. std::map keeps the key order
        // stable run to run; a node that is down contributes nothing (its
        // snapshot cleared with the socket).
        std::map<std::string, std::uint64_t> backend;
        for (const auto& node : upstreams_) {
          for (const auto& [key, value] : node->last_stats()) {
            backend[key] += value;
          }
        }
        for (const auto& [key, value] : backend) stat("backend_" + key, value);
      });
  h_upstream_ = &registry_.histogram(
      "treesched_router_upstream_seconds", "",
      "Forward send to backend answer, one routed request",
      obs::Histogram::latency_bounds_ns(), 1e-9, "upstream");
  for (int c = 0; c < kPriorityClasses; ++c) {
    std::string labels = "class=\"";
    labels.append(to_string(static_cast<Priority>(c))).append("\"");
    // The router's rolling per-class p99 gauges ride these histograms'
    // sliding windows (treesched_router_upstream_seconds_window).
    h_upstream_class_[c] = &registry_.histogram(
        "treesched_router_upstream_seconds", labels,
        "Forward send to backend answer, one routed request",
        obs::Histogram::latency_bounds_ns(), 1e-9, "");
  }
}

void Router::run() {
  frontend_.start();
  // Periodic health driver: connects, pings, timeouts, stats polls. It
  // stays armed through the drain — a node that dies mid-drain must
  // still fail over or error out the forwards it holds, or the drain
  // would hang on answers that can never come.
  health_timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (health_timer_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "timerfd");
  }
  const auto interval_ns = static_cast<std::uint64_t>(
      std::max(1.0, config_.health_interval_ms) * 1e6);
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(interval_ns / 1'000'000'000ULL);
  spec.it_value.tv_nsec = static_cast<long>(interval_ns % 1'000'000'000ULL);
  spec.it_interval = spec.it_value;
  ::timerfd_settime(health_timer_fd_, 0, &spec, nullptr);
  loop_.add(health_timer_fd_, EPOLLIN, [this](std::uint32_t) {
    std::uint64_t expirations = 0;
    while (::read(health_timer_fd_, &expirations, sizeof(expirations)) > 0) {
    }
    const std::uint64_t now = obs::now_ns();
    for (auto& node : upstreams_) node->health_tick(now);
  });
  {
    // First connects happen now, not a health interval from now.
    const std::uint64_t now = obs::now_ns();
    for (auto& node : upstreams_) node->health_tick(now);
  }
  loop_.run();
  frontend_.finish();
  if (health_timer_fd_ >= 0) {
    loop_.remove(health_timer_fd_);
    ::close(health_timer_fd_);
    health_timer_fd_ = -1;
  }
}

void Router::stop() {
  // No outstanding count to wait for, unlike the server: forwards settle
  // on this thread, and once every client is gone an answer still in
  // flight from a backend has nowhere to go.
  loop_.post([this] { frontend_.begin_drain(); });
}

std::optional<ServiceError> Router::schedule(net::Session& session,
                                             std::uint64_t key,
                                             const RequestView& req,
                                             const net::TraceContext& ctx) {
  // The distributed trace id: a traced client's own id wins (the
  // correlator must be end-to-end); otherwise the router mints one per
  // request while its tracer is on. Zero = untraced, and the forward's
  // frame stays byte-identical to the pre-trace wire format.
  std::uint64_t trace_id = ctx.trace_id;
  if (trace_id == 0 && obs::Tracer::global().enabled()) {
    trace_id = next_trace_id_++;
  }

  Forward fwd;
  fwd.kind = Forward::Kind::kSchedule;
  fwd.conn_id = session.id();
  fwd.key = key;
  fwd.route_key = spec_key(req.tree_spec);
  fwd.retries_left = config_.retries;
  fwd.trace_id = trace_id;
  fwd.priority = static_cast<int>(req.priority);
  // The canonical forward line: the client's request re-spelled WITHOUT
  // its id= tag — the upstream id is the router's own (appended fresh
  // at each send, so a retry can never collide with the first attempt)
  // and the client's tag is restored at delivery.
  fwd.line.reserve(req.tree_spec.size() + req.algo.size() + 48);
  fwd.line.append(req.tree_spec);
  fwd.line.push_back(' ');
  fwd.line.append(req.algo);
  fwd.line.push_back(' ');
  fwd.line.append(std::to_string(req.p));
  if (req.memory_cap != 0) {
    fwd.line.push_back(' ');
    fwd.line.append(std::to_string(req.memory_cap));
  }
  if (req.priority != Priority::kBatch) {
    fwd.line.append(" priority=");
    fwd.line.append(to_string(req.priority));
  }
  if (req.deadline_ms > 0.0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " deadline_ms=%.17g", req.deadline_ms);
    fwd.line.append(buf);
  }

  std::optional<ServiceError> refused = route(std::move(fwd));
  if (!refused) return std::nullopt;
  if (refused->code == ErrorCode::kQueueFull) {
    ++counters_.queue_full;
    obs::EventLog::global().emit(
        "queue_full", trace_id,
        {obs::EventLog::Field::u64("conn", session.id()),
         obs::EventLog::Field::str("scope", "cluster")});
  } else {
    ++counters_.node_unavailable;
  }
  return refused;
}

bool Router::cancel(net::Session& session, std::uint64_t key) {
  for (auto& node : upstreams_) {
    if (!node->cancel_queued(session.id(), key)) continue;
    ++counters_.cancelled;
    session.deliver(key, net::error_answer(ErrorCode::kCancelled,
                                           "cancelled while queued in the "
                                           "router"));
    return true;
  }
  return false;
}

void Router::trace_switched(bool on) {
  for (auto& node : upstreams_) {
    if (node->state() != Upstream::State::kUp) continue;
    Forward ctl;
    ctl.kind = Forward::Kind::kTraceCtl;
    ctl.line = on ? "trace start" : "trace stop";
    node->enqueue(std::move(ctl));
  }
}

void Router::trace_status(
    std::vector<std::pair<std::string, std::uint64_t>>& out) {
  for (std::size_t i = 0; i < trace_pull_failures_.size(); ++i) {
    out.emplace_back("node" + std::to_string(i) + "_pull_failures",
                     trace_pull_failures_[i]);
  }
}

std::optional<ServiceError> Router::route(Forward fwd) {
  std::size_t total = 0;
  std::size_t live = 0;
  for (const auto& node : upstreams_) {
    total += node->load();
    if (node->state() != Upstream::State::kDown) ++live;
  }
  if (live == 0) {
    return ServiceError{ErrorCode::kNodeUnavailable,
                        "no backend node is up", nullptr};
  }
  // Bounded-load consistent hashing: the first live clockwise node
  // under ceil(c * (total+1) / live) schedule forwards takes the key.
  // At least one live node sits at or below the average, so the walk
  // only falls through when queues (not the bound) are the constraint.
  const std::size_t bound = static_cast<std::size_t>(std::ceil(
      config_.load_factor * static_cast<double>(total + 1) /
      static_cast<double>(live)));
  std::size_t chosen = SIZE_MAX;
  std::size_t fallback = SIZE_MAX;
  ring_.walk(fwd.route_key, [&](std::size_t node) {
    const Upstream& up = *upstreams_[node];
    if (!up.routable()) return false;
    if (fallback == SIZE_MAX) fallback = node;
    if (up.load() < bound) {
      chosen = node;
      return true;
    }
    return false;
  });
  if (chosen == SIZE_MAX) chosen = fallback;
  if (chosen == SIZE_MAX) {
    return ServiceError{
        ErrorCode::kQueueFull,
        "every live backend is at its queue bound (" +
            std::to_string(config_.upstream_queue) +
            " queued forwards); the cluster is saturated",
        nullptr};
  }
  ++counters_.forwarded;
  ++routed_[chosen];
  upstreams_[chosen]->enqueue(std::move(fwd));
  return std::nullopt;
}

void Router::on_upstream_response(const Forward& fwd, ResponseLine&& resp) {
  ++counters_.responses;
  if (fwd.sent_ns != 0) {
    const std::uint64_t rtt = obs::now_ns() - fwd.sent_ns;
    if (h_upstream_ != nullptr) h_upstream_->record(rtt);
    if (fwd.priority >= 0 && fwd.priority < kPriorityClasses &&
        h_upstream_class_[fwd.priority] != nullptr) {
      h_upstream_class_[fwd.priority]->record(rtt);
    }
    obs::Tracer& tracer = obs::Tracer::global();
    if (tracer.enabled()) {
      // The router-side half of the cross-process trace: this span's
      // arg (the trace id) matches the backend's net/accept span for
      // the same request in a merged dump.
      tracer.record("router/upstream", fwd.sent_ns, rtt, fwd.trace_id);
    }
  }
  net::Session* session = frontend_.find(fwd.conn_id);
  if (session == nullptr) return;  // client vanished; drop the answer
  session->deliver(fwd.key, std::move(resp));
}

void Router::on_upstream_failed(Forward&& fwd) {
  const std::uint64_t conn_id = fwd.conn_id;
  const std::uint64_t key = fwd.key;
  if (fwd.retries_left > 0) {
    --fwd.retries_left;
    ++counters_.retried;
    obs::EventLog::global().emit(
        "retry", fwd.trace_id,
        {obs::EventLog::Field::u64("conn", fwd.conn_id),
         obs::EventLog::Field::u64("retries_left",
                                   static_cast<std::uint64_t>(
                                       fwd.retries_left))});
    const std::optional<ServiceError> refused = route(std::move(fwd));
    if (!refused) return;
    ++counters_.node_unavailable;
    settle_error(conn_id, key, ErrorCode::kNodeUnavailable,
                 "the node serving this request died and no alternate "
                 "could take it: " +
                     refused->message);
    return;
  }
  ++counters_.node_unavailable;
  settle_error(conn_id, key, ErrorCode::kNodeUnavailable,
               "the node serving this request died (retry budget "
               "exhausted)");
}

std::optional<ResponseLine> Router::trace_dump(net::Session& session,
                                               std::uint64_t key,
                                               std::string path) {
  if (trace_dump_) {
    return net::error_answer(ErrorCode::kBadRequest,
                             "a merged trace dump is already in progress");
  }
  trace_dump_ = std::make_unique<TraceDump>();
  trace_dump_->conn_id = session.id();
  trace_dump_->key = key;
  trace_dump_->path = std::move(path);
  // The router's own spans merge as pid 1; each backend node gets
  // pid 2 + its dense index, so the Perfetto timeline shows one row
  // group per process with stable names.
  obs::ProcessSpans self;
  self.name = "router";
  self.pid = 1;
  for (const obs::SpanView& sv : obs::Tracer::global().snapshot()) {
    self.spans.push_back(obs::MergedSpan{
        sv.name != nullptr ? sv.name : "", sv.start_ns, sv.dur_ns, sv.arg,
        sv.tid});
  }
  trace_dump_->procs.push_back(std::move(self));
  for (auto& node : upstreams_) {
    if (node->state() != Upstream::State::kUp) continue;
    Forward pull;
    pull.kind = Forward::Kind::kTracePull;
    pull.line = "trace pull";
    ++trace_dump_->awaiting;
    node->enqueue(std::move(pull));
  }
  // No live backend: still a valid dump of the router's own timeline.
  if (trace_dump_->awaiting == 0) finish_trace_dump();
  return std::nullopt;
}

void Router::on_trace_pull(
    std::size_t node,
    std::vector<std::pair<std::string, std::uint64_t>>&& pairs) {
  if (!trace_dump_ || trace_dump_->awaiting == 0) return;
  std::vector<obs::MergedSpan> spans;
  if (decode_span_pairs(pairs, spans)) {
    obs::ProcessSpans proc;
    proc.name = "node " +
                (node < upstreams_.size() ? upstreams_[node]->name()
                                          : std::to_string(node));
    proc.pid = static_cast<std::uint32_t>(2 + node);
    proc.spans = std::move(spans);
    trace_dump_->procs.push_back(std::move(proc));
    ++trace_dump_->pulled;
  } else {
    // A backend answered garbage: the dump still finishes without it.
    if (node < trace_pull_failures_.size()) ++trace_pull_failures_[node];
    ++trace_dump_->pull_failures;
  }
  if (--trace_dump_->awaiting == 0) finish_trace_dump();
}

void Router::on_trace_pull_failed(std::size_t node) {
  if (node < trace_pull_failures_.size()) ++trace_pull_failures_[node];
  if (!trace_dump_ || trace_dump_->awaiting == 0) return;
  ++trace_dump_->pull_failures;
  if (--trace_dump_->awaiting == 0) finish_trace_dump();
}

void Router::finish_trace_dump() {
  std::unique_ptr<TraceDump> dump = std::move(trace_dump_);
  if (!dump) return;
  ResponseLine line;
  line.kind = ResponseLine::Kind::kTrace;
  std::ofstream os(dump->path, std::ios::binary | std::ios::trunc);
  if (!os) {
    line.ok = false;
    line.code = ErrorCode::kBadRequest;
    line.message = "cannot open trace dump file";
  } else {
    const std::size_t written =
        obs::write_merged_chrome_trace(os, dump->procs);
    os.flush();
    if (!os) {
      line.ok = false;
      line.code = ErrorCode::kBadRequest;
      line.message = "short write on trace dump file";
    } else {
      line.ok = true;
      line.stats = {
          {"enabled", obs::Tracer::global().enabled() ? 1u : 0u},
          {"spans", written},
          {"dropped", obs::Tracer::global().dropped()},
          {"nodes_merged", dump->pulled},
          {"pull_failures", dump->pull_failures},
      };
    }
  }
  net::Session* session = frontend_.find(dump->conn_id);
  if (session == nullptr) return;  // client vanished mid-dump
  session->deliver(dump->key, std::move(line));
}

void Router::settle_error(std::uint64_t conn_id, std::uint64_t key,
                          ErrorCode code, std::string message) {
  net::Session* session = frontend_.find(conn_id);
  if (session == nullptr) return;
  session->deliver(key, net::error_answer(code, std::move(message)));
}

}  // namespace treesched::cluster
