#include "net/server.hpp"

#include <cstdio>
#include <fstream>
#include <utility>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"

namespace treesched::net {

namespace {

/// The answer to one schedule request: what it echoes of the request
/// plus the scores.
ResponseLine answer(ResponseLine echo, const ScheduleResponse& resp) {
  echo.ok = true;
  echo.makespan = resp.makespan;
  echo.peak_memory = resp.peak_memory;
  echo.cache_hit = resp.cache_hit;
  return echo;
}

ResponseLine answer(ResponseLine echo, const ServiceResult& result) {
  if (!result.ok()) {
    return error_answer(result.error().code, result.error().message);
  }
  return answer(std::move(echo), result.value());
}

}  // namespace

std::size_t Server::TicketKeyHash::operator()(const TicketKey& k) const {
  return static_cast<std::size_t>(mix64(k.session ^ mix64(k.key)));
}

Server::Server(SchedulingService& service, ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      frontend_(loop_, *this, counters_, service_.registry(), config_.frontend,
                TierWording{.tier = "server",
                            .started = "running",
                            .slo_metric = "treesched_slo_error_ratio"}) {
  init_metrics();
}

Server::~Server() { *alive_ = false; }

void Server::init_metrics() {
  obs::MetricsRegistry& reg = service_.registry();
  // The collector reads loop-thread counters without synchronization —
  // see the declaration comment for why every snapshot consumer is that
  // same thread. It registers after the service's, so the transport
  // keys follow the service's on the stats line.
  reg.register_collector(
      [this, alive = std::weak_ptr<bool>(alive_)](obs::RegistrySnapshot& out) {
        if (alive.expired()) return;
        const ServerCounters& sc = counters_;
        auto counter = [&](const char* name, const char* help, double v,
                           const char* key) {
          out.samples.push_back(obs::MetricSample{
              name, "", help, obs::MetricKind::kCounter, v, key});
        };
        auto gauge = [&](const char* name, const char* help, double v,
                         const char* key) {
          out.samples.push_back(obs::MetricSample{
              name, "", help, obs::MetricKind::kGauge, v, key});
        };
        counter("treesched_server_accepted_total", "Connections accepted",
                sc.accepted, "accepted");
        counter("treesched_server_rejected_conns_total",
                "Connections turned away at max_conns", sc.rejected_conns,
                "rejected_conns");
        counter("treesched_server_requests_total",
                "Requests framed (text lines and binary payloads alike)",
                sc.lines, "lines");
        counter("treesched_server_submitted_total",
                "Tickets submitted to the service", sc.submitted, "submitted");
        counter("treesched_server_v3_conns_total",
                "Connections that negotiated binary protocol v3", sc.v3_conns,
                "v3_conns");
        counter("treesched_server_frames_total", "Well-formed v3 frames parsed",
                sc.frames_in, "frames_in");
        counter("treesched_server_frames_bad_total",
                "Protocol-violating v3 frames", sc.frames_bad, "frames_bad");
        counter("treesched_server_batch_requests_total",
                "Requests that arrived inside batch frames", sc.batch_requests,
                "batch_requests");
        counter("treesched_server_parse_errors_total",
                "Requests rejected by the grammar", sc.parse_errors,
                "parse_errors");
        gauge("treesched_server_connections", "Open connections",
              frontend_.sessions(), "conns");
        gauge("treesched_server_outstanding",
              "Submitted tickets not yet settled", outstanding_,
              "outstanding");
      });
  h_net_e2e_ = &reg.histogram(
      "treesched_net_e2e_seconds", "",
      "Accept-to-flush wall time of one served request",
      obs::Histogram::latency_bounds_ns(), 1e-9, "net_e2e");
  for (int c = 0; c < kPriorityClasses; ++c) {
    std::string labels = "class=\"";
    labels.append(to_string(static_cast<Priority>(c))).append("\"");
    // The per-class rolling p99 SLO gauges ride these histograms'
    // sliding windows (exported as treesched_net_e2e_seconds_window).
    h_e2e_class_[c] = &reg.histogram(
        "treesched_net_e2e_seconds", labels,
        "Accept-to-flush wall time of one served request",
        obs::Histogram::latency_bounds_ns(), 1e-9, "");
  }
  for (int c = 0; c <= kPriorityClasses; ++c) {
    const char* label =
        c == kPriorityClasses ? "all" : to_string(static_cast<Priority>(c));
    std::string labels = "stage=\"write_stall\",class=\"";
    labels.append(label).append("\"");
    h_write_stall_[c] = &reg.histogram(
        "treesched_stage_seconds", labels,
        "Per-stage latency of one request's lifecycle",
        obs::Histogram::latency_bounds_ns(), 1e-9,
        c == kPriorityClasses ? "stage_write_stall" : "");
  }
}

void Server::record_flushed(const ResponseTiming& timing) {
  using obs::Stage;
  const obs::StageStamps& st = timing.stamps;
  const std::uint64_t e2e = st.between(Stage::kAccept, Stage::kFlush);
  const std::uint64_t stall = st.between(Stage::kSerialize, Stage::kFlush);
  h_net_e2e_->record(e2e);
  int cls = static_cast<int>(timing.priority);
  if (cls < 0 || cls >= kPriorityClasses) cls = kPriorityClasses;
  if (cls != kPriorityClasses) h_e2e_class_[cls]->record(e2e);
  h_write_stall_[cls]->record(stall);
  if (cls != kPriorityClasses) h_write_stall_[kPriorityClasses]->record(stall);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled() && st.has(Stage::kAccept)) {
    // The net-layer residency spans, stamped from the stage record at
    // flush time so the hot path pays nothing while tracing is off.
    // Both carry the propagated trace id — the hook a merged cluster
    // dump correlates router and backend timelines by.
    tracer.record("net/accept", st.at(Stage::kAccept), e2e, timing.trace_id);
    if (st.has(Stage::kSerialize)) {
      tracer.record("net/flush", st.at(Stage::kSerialize), stall,
                    timing.trace_id);
    }
  }
  if (config_.slow_ms <= 0.0 ||
      static_cast<double>(e2e) < config_.slow_ms * 1e6) {
    return;
  }
  obs::EventLog::global().emit(
      "slow_request", timing.trace_id,
      {obs::EventLog::Field::u64("id", timing.id.value_or(0)),
       obs::EventLog::Field::str("class", to_string(timing.priority)),
       obs::EventLog::Field::str("algo", timing.algo),
       obs::EventLog::Field::u64("e2e_us", e2e / 1000),
       obs::EventLog::Field::u64("cache_hit", timing.cache_hit ? 1 : 0)});
  // One stderr line per slow request, built whole so it cannot
  // interleave mid-line with another writer of stderr.
  std::string line = "[treesched] slow request";
  if (timing.id) line.append(" id=").append(std::to_string(*timing.id));
  if (!timing.algo.empty()) line.append(" algo=").append(timing.algo);
  line.append(" class=").append(to_string(timing.priority));
  if (timing.cache_hit) line.append(" cache_hit=1");
  char buf[64];
  std::snprintf(buf, sizeof(buf), " e2e=%.3fms",
                static_cast<double>(e2e) / 1e6);
  line.append(buf);
  const auto stage_delta = [&](const char* name, Stage from, Stage to) {
    if (!st.has(from) || !st.has(to)) return;
    std::snprintf(buf, sizeof(buf), " %s=%.3fms", name,
                  static_cast<double>(st.between(from, to)) / 1e6);
    line.append(buf);
  };
  stage_delta("parse", Stage::kAccept, Stage::kParse);
  stage_delta("admit", Stage::kParse, Stage::kAdmit);
  stage_delta("queue_wait", Stage::kAdmit, Stage::kDequeue);
  stage_delta("dispatch", Stage::kDequeue, Stage::kComputeStart);
  stage_delta("compute", Stage::kComputeStart, Stage::kComputeEnd);
  stage_delta("settle", Stage::kComputeEnd, Stage::kSerialize);
  stage_delta("write_stall", Stage::kSerialize, Stage::kFlush);
  line.push_back('\n');
  std::fputs(line.c_str(), stderr);
}

void Server::run() {
  frontend_.start();
  loop_.run();
  // Drained: no session and no outstanding ticket — every accepted
  // request was answered or cancelled, and no Ticket::on_complete
  // callback can reach this Server again.
  frontend_.finish();
}

void Server::stop() {
  loop_.post([this] { frontend_.begin_drain(); });
}

std::optional<ServiceError> Server::schedule(Session& session,
                                             std::uint64_t key,
                                             const RequestView& req,
                                             const TraceContext& /*ctx*/) {
  Result<TreeHandle, ServiceError> handle = intern_spec(req.tree_spec);
  if (!handle.ok()) return handle.error();
  ScheduleRequest sreq;
  // Accept and parse share the read burst's stamp: sub-burst parse time
  // is noise at the histograms' microsecond resolution, and one clock
  // read per burst keeps the hot path cheap.
  sreq.stamps.stamp(obs::Stage::kAccept, session.burst_ns());
  sreq.stamps.stamp(obs::Stage::kParse, session.burst_ns());
  sreq.tree = handle.value();
  // The request's strings are owned from here on: everything upstream of
  // this point was views into the read buffer.
  sreq.algo = std::string(req.algo);
  sreq.p = req.p;
  sreq.memory_cap = req.memory_cap;
  sreq.priority = req.priority;
  sreq.deadline_ms = req.deadline_ms;
  // What the answer echoes of its request.
  ResponseLine echo;
  echo.tree_hash = sreq.tree.hash;
  echo.n = sreq.tree->size();
  echo.algo = sreq.algo;
  echo.p = req.p;
  echo.priority = req.priority;

  // Cache-hit fast path, right here on the I/O thread: no ticket, no
  // queue, no pool job, no eventfd round trip — the answer flushes with
  // the read burst, so a cache-hot batch frame answers in one write.
  if (const std::optional<ScheduleResponse> hit = service_.try_cached(sreq)) {
    session.deliver(key, answer(std::move(echo), *hit), hit->stamps);
    return std::nullopt;
  }

  ++counters_.submitted;
  ++outstanding_;
  const TicketKey tk{session.id(), key};
  Ticket& ticket =
      tickets_.emplace(tk, service_.submit(std::move(sreq)))
          .first->second;
  // Attached after the ticket is stored: an already-settled ticket
  // (service-level queue_full) fires inline and posts, and the posted
  // delivery finds everything in place.
  ticket.on_complete([this, tk, echo = std::move(echo)](
                         const ServiceResult& result) mutable {
    // Runs on whichever thread settled the ticket (a pool worker, or
    // the I/O thread itself for cancellations); the copy hands the
    // result to the loop thread. outstanding_ drops only there, so the
    // drain cannot finish while a completion is still on its way.
    loop_.post([this, tk, echo = std::move(echo), result]() mutable {
      --outstanding_;
      tickets_.erase(tk);
      if (Session* target = frontend_.find(tk.session)) {
        target->deliver(tk.key, answer(std::move(echo), result),
                        result.ok() ? result.value().stamps
                                    : obs::StageStamps{});
      }
      if (frontend_.draining()) frontend_.maybe_finish();
    });
  });
  return std::nullopt;
}

bool Server::cancel(Session& session, std::uint64_t key) {
  // On success the ticket settles with code=cancelled and its completion
  // posts the answer like any other.
  const auto it = tickets_.find(TicketKey{session.id(), key});
  return it != tickets_.end() && it->second.cancel();
}

std::optional<ResponseLine> Server::trace_dump(Session& /*session*/,
                                               std::uint64_t /*key*/,
                                               std::string path) {
  // The write runs synchronously on the I/O thread and stalls every
  // session (and the metrics endpoint) for its duration. Accepted
  // deliberately: the dump is bounded (4096 spans per thread ring), and
  // it only happens when the operator configured a trace directory and
  // asked for a dump — a diagnostic moment, not a serving-path
  // operation.
  obs::Tracer& tracer = obs::Tracer::global();
  std::ofstream out{path};
  if (!out) {
    return error_answer(ErrorCode::kBadRequest,
                        "cannot open trace path \"" + path + "\" for writing");
  }
  const std::uint64_t written = tracer.write_chrome_trace(out);
  if (!out) {
    return error_answer(ErrorCode::kBadRequest,
                        "short write dumping trace to \"" + path + "\"");
  }
  ResponseLine line;
  line.kind = ResponseLine::Kind::kTrace;
  line.ok = true;
  line.stats = {
      {"enabled", tracer.enabled() ? 1 : 0},
      {"spans", tracer.recorded()},
      {"dropped", tracer.dropped()},
      {"written", written},
  };
  return line;
}

Result<TreeHandle, ServiceError> Server::intern_spec(std::string_view spec) {
  // Heterogeneous find: the hot path (a spec seen before, which is what
  // a steady workload looks like) costs zero allocations even when the
  // spec is a view into a v3 frame buffer.
  const auto it = spec_memo_.find(spec);
  if (it != spec_memo_.end()) return it->second;
  try {
    // The spec is raw client input: bound generator sizes before any
    // allocation and confine (or refuse) file: reads. The limits throw
    // BEFORE read_tree_file or a generator runs, so the error text can
    // never carry filesystem contents. try_intern keeps store rejection
    // typed (kStoreFull); only spec resolution itself (file IO,
    // generator args) still throws.
    Result<TreeHandle, ServiceError> handle = service_.try_intern(
        tree_from_spec(std::string(spec), config_.spec));
    if (handle.ok()) spec_memo_.emplace(std::string(spec), handle.value());
    return handle;
  } catch (const std::exception& e) {
    return ServiceError{ErrorCode::kBadRequest, e.what(),
                        std::current_exception()};
  }
}

}  // namespace treesched::net
