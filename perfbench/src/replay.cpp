#include "replay.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "campaign/dataset.hpp"
#include "cluster/ring.hpp"
#include "common.hpp"
#include "core/simulator.hpp"
#include "net/frame.hpp"
#include "net/line_framer.hpp"
#include "obs/metrics.hpp"
#include "sched/registry.hpp"
#include "service/request_view.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"

namespace perfbench {

namespace ts = treesched;
using ts::ResponseLine;

namespace {

constexpr std::size_t kBatch = 16;
constexpr std::size_t kHotBatches = 2000;     // replayed hot batches per pass
constexpr std::size_t kColdTrees = 24;        // replayed cold/capped trees
constexpr std::size_t kCheckTrees = 6;        // untraced: trees checked
constexpr std::size_t kProbeTrees = 6;        // per-algorithm probe trees
constexpr ts::NodeId kProbeMaxNodes = 2000;
constexpr int kPasses = 3;                    // spans-off/on pass pairs
constexpr int kEchoRounds = 2000;

/// The span buffer. Off, every helper just runs its call.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  std::int32_t open(const char* name, std::int64_t request) {
    if (!on_) return -1;
    spans_.push_back(Span{name, now_ns(), 0, -1, request, 1, false});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  /// Times `fn` as one call of layer `name` under `parent`.
  template <typename Fn>
  void call(const char* name, std::int32_t parent, std::int64_t request,
            bool on_path, Fn&& fn, std::uint32_t covers = 1) {
    if (!on_) {
      fn();
      return;
    }
    const std::uint64_t start = now_ns();
    fn();
    const std::uint64_t end = now_ns();
    spans_.push_back(Span{name, start, end, parent, request, covers, on_path});
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

const char* sched_span(const std::string& algo) {
  // Node-based map: the c_str() of a stored name never moves.
  static std::map<std::string, std::string> names;
  auto [it, inserted] = names.try_emplace(algo, "sched." + algo);
  return it->second.c_str();
}

const char* resolve_span(const std::string& spec) {
  return spec.rfind("grid:", 0) == 0 ? "campaign.resolve_grid"
                                     : "campaign.resolve_synthetic";
}

struct SpecHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
template <typename V>
using SpecMap = std::unordered_map<std::string, V, SpecHash, std::equal_to<>>;

/// In-process stand-ins for the state of one server and one router.
struct Fixture {
  explicit Fixture(std::size_t nodes) {
    for (std::size_t i = 0; i < nodes; ++i) {
      ring.add("127.0.0.1:" + std::to_string(3714 + i));
    }
    // The service answers try_cached() only for algorithms it has
    // resolved before, as a server has after its warm-up.
    ts::Tree tiny = ts::tree_from_spec("synthetic:50:1");
    const ts::TreeHandle handle = service.try_intern(tiny).value();
    std::vector<ts::ScheduleRequest> reqs;
    for (const std::string& algo : ts::SchedulerRegistry::instance().names()) {
      if (algo == "BruteForceSeq") continue;
      ts::ScheduleRequest req;
      req.tree = handle;
      req.algo = algo;
      req.p = 2;
      reqs.push_back(req);
      schedulers.emplace(algo, ts::SchedulerRegistry::instance().create(algo));
    }
    (void)service.schedule_batch(reqs);
  }

  ts::SchedulingService service;
  ts::ResultCache cache;
  ts::obs::MetricsRegistry registry;
  ts::cluster::HashRing ring;
  SpecMap<ts::TreeHandle> memo;           ///< net::Server's spec memo
  SpecMap<std::uint64_t> fingerprints;    ///< the router's spec memo
  std::map<std::string, std::unique_ptr<ts::Scheduler>> schedulers;
};

/// What one replayed request came back with.
struct Outcome {
  bool computed = false;
  double makespan = 0.0;
  ts::MemSize peak_memory = 0;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

std::size_t ring_walk(const ts::cluster::HashRing& ring, std::uint64_t fp) {
  std::size_t chosen = 0;
  ring.walk(fp, [&](std::size_t node) {
    chosen = node;
    return true;
  });
  return chosen;
}

/// The router's half of one request: memo (or resolve + fingerprint on a
/// miss), ring walk, upstream frame. On the path only when routed.
std::string route(Fixture& fx, Tracer& tr, std::int32_t parent,
                  std::int64_t id, bool routed, std::string_view spec,
                  const std::string& upstream_line) {
  std::uint64_t fp = 0;
  bool known = false;
  tr.call("cluster.fp_memo", parent, id, routed, [&] {
    const auto it = fx.fingerprints.find(spec);
    known = it != fx.fingerprints.end();
    if (known) fp = it->second;
  });
  if (!known) {
    ts::Tree tree;
    tr.call("cluster.resolve", parent, id, routed,
            [&] { tree = ts::tree_from_spec(std::string(spec)); });
    tr.call("cluster.fingerprint", parent, id, routed,
            [&] { fp = ts::tree_fingerprint(tree); });
    fx.fingerprints.emplace(std::string(spec), fp);
  }
  tr.call("cluster.ring_walk", parent, id, routed,
          [&] { (void)ring_walk(fx.ring, fp); });
  std::string wire;
  if (routed) {
    tr.call("cluster.encode_upstream", parent, id, true,
            [&] { ts::net::FrameWriter(wire).request(upstream_line); });
  }
  return wire;
}

/// The node's half of one parsed request: memo (resolve + intern on a
/// miss), cache probe, and on a miss schedule, simulate, the per-algorithm
/// histograms and the cache put. Returns the answer line to encode.
ResponseLine serve(Fixture& fx, Tracer& tr, std::int32_t parent,
                   std::int64_t id, const ts::RequestView& req,
                   Outcome& outcome) {
  ts::TreeHandle handle;
  bool known = false;
  tr.call("net.spec_memo", parent, id, true, [&] {
    const auto it = fx.memo.find(req.tree_spec);
    known = it != fx.memo.end();
    if (known) handle = it->second;
  });
  if (!known) {
    ts::Tree tree;
    const std::string spec(req.tree_spec);
    tr.call(resolve_span(spec), parent, id, true,
            [&] { tree = ts::tree_from_spec(spec); });
    tr.call("service.intern", parent, id, true, [&] {
      handle = fx.service.try_intern(std::move(tree)).value();
      fx.memo.emplace(spec, handle);
    });
  }
  ts::ScheduleRequest sreq;
  sreq.tree = handle;
  sreq.algo = std::string(req.algo);
  sreq.p = req.p;
  sreq.memory_cap = req.memory_cap;
  sreq.priority = req.priority;
  std::optional<ts::ScheduleResponse> hit;
  tr.call("service.cache_probe", parent, id, true,
          [&] { hit = fx.service.try_cached(sreq); });
  ResponseLine line;
  line.ok = true;
  line.tree_hash = handle.hash;
  line.n = handle->size();
  line.algo = sreq.algo;
  line.p = sreq.p;
  line.priority = sreq.priority;
  if (hit) {
    line.cache_hit = true;
    line.makespan = hit->makespan;
    line.peak_memory = hit->peak_memory;
    outcome = Outcome{false, hit->makespan, hit->peak_memory};
    return line;
  }
  const ts::Scheduler& sched = *fx.schedulers.at(sreq.algo);
  ts::Schedule schedule;
  tr.call(sched_span(sreq.algo), parent, id, true, [&] {
    schedule = sched.schedule(*handle, ts::Resources{sreq.p, sreq.memory_cap});
  });
  ts::SimulationResult sim;
  tr.call("core.simulate", parent, id, true,
          [&] { sim = ts::simulate(*handle, schedule); });
  const std::string label = "algo=\"" + sreq.algo + "\"";
  tr.call("obs.algo_histogram", parent, id, true, [&] {
    fx.registry
        .histogram("treesched_algo_compute_seconds", label, "",
                   ts::obs::Histogram::latency_bounds_ns(), 1e-9)
        .record(1);
  });
  tr.call("obs.algo_histogram", parent, id, true, [&] {
    fx.registry
        .histogram("treesched_algo_peak_memory_bytes", label, "",
                   ts::obs::Histogram::bytes_bounds(), 1.0)
        .record(static_cast<std::uint64_t>(sim.peak_memory));
  });
  auto cached = std::make_shared<ts::CachedResult>();
  cached->makespan = sim.makespan;
  cached->peak_memory = sim.peak_memory;
  cached->schedule = std::move(schedule);
  tr.call("service.cache_put", parent, id, true, [&] {
    ts::ResultKey key;
    key.tree_uid = handle.uid;
    key.algo = sreq.algo;
    key.p = sched.capabilities().sequential_only ? 1 : sreq.p;
    key.memory_cap = sreq.memory_cap;
    fx.cache.put(key, cached);
  });
  line.makespan = sim.makespan;
  line.peak_memory = sim.peak_memory;
  outcome = Outcome{true, sim.makespan, sim.peak_memory};
  return line;
}

/// The router's return half: decode the node's answer frame, re-encode
/// it for the client.
void route_back(Tracer& tr, std::int32_t parent, std::int64_t id,
                const std::string& node_frame, bool text_client) {
  ResponseLine resp;
  tr.call("cluster.decode_upstream", parent, id, true, [&] {
    ts::net::FrameReader reader;
    reader.feed(node_frame.data(), node_frame.size());
    ts::net::Frame frame;
    std::string error;
    if (reader.next(frame) != ts::net::FrameReader::Status::kFrame ||
        !ts::net::decode_response_frame(frame, resp, error)) {
      throw std::runtime_error("replay: undecodable node answer " + error);
    }
  });
  std::string out;
  tr.call("cluster.encode_client", parent, id, true, [&] {
    if (text_client) {
      out = ts::format_response_line(resp);
    } else {
      ts::net::FrameWriter(out).response(resp);
    }
  });
}

/// One v3 frame's payload (single request or batch) as request views.
std::vector<std::string_view> decode_frame(ts::net::FrameReader& reader,
                                           const std::string& bytes) {
  reader.feed(bytes.data(), bytes.size());
  ts::net::Frame frame;
  if (reader.next(frame) != ts::net::FrameReader::Status::kFrame) {
    throw std::runtime_error("replay: undecodable request frame");
  }
  ts::net::TraceContext ctx;
  std::string_view rest;
  std::string error;
  if (!ts::net::split_trace_context(frame, ctx, rest, error)) {
    throw std::runtime_error("replay: " + error);
  }
  if (frame.opcode == ts::net::Opcode::kRequest) return {rest};
  std::vector<std::string_view> views;
  if (!ts::net::decode_batch(rest, views, error)) {
    throw std::runtime_error("replay: " + error);
  }
  return views;
}

ts::RequestView parse_view(std::string_view text) {
  ts::RequestView view;
  std::string error;
  if (!ts::parse_request_view(text, view, error)) {
    throw std::runtime_error("replay: unparsable request: " + error);
  }
  return view;
}

/// A replayed request or batch, encoded before any pass so the passes
/// time only the serving calls.
struct Unit {
  std::vector<std::size_t> index;  ///< stream request (cold) or pool key (hot)
  std::vector<std::string> lines;  ///< request lines as sent
  bool text = false;               ///< came over text v2
  std::string client_bytes;        ///< what the client sent
};

std::vector<Unit> hot_units(const Stream& stream, std::uint64_t seed,
                            std::size_t batches) {
  HotPicker pickers[2] = {HotPicker(seed, 0, 0, stream.requests.size()),
                          HotPicker(seed, 0, 1, stream.requests.size())};
  std::vector<Unit> units(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    Unit& u = units[b];
    u.text = b % 2 == 1;  // connection 0 speaks v3, connection 1 text v2
    for (std::size_t i = 0; i < kBatch; ++i) {
      std::size_t key = 0;
      bool inter = false;
      pickers[b % 2].next(key, inter);
      u.index.push_back(key);
      u.lines.push_back(stream.requests[key].line + priority_field(inter));
    }
    if (u.text) {
      for (const std::string& line : u.lines) u.client_bytes += line + "\n";
    } else {
      ts::net::FrameWriter(u.client_bytes).batch(u.lines);
    }
  }
  return units;
}

std::vector<Unit> stream_units(const Stream& stream, std::size_t trees) {
  std::vector<Unit> units;
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    const Request& r = stream.requests[i];
    if (r.tree >= trees) continue;
    Unit u;
    u.index.push_back(i);
    u.lines.push_back(r.line + priority_field(r.interactive) + " id=" +
                      std::to_string(i));
    ts::net::FrameWriter(u.client_bytes).request(u.lines.back());
    units.push_back(std::move(u));
  }
  return units;
}

/// One pass over `units`; returns its wall time in ns. `outcomes` gets
/// each request's result in unit order.
std::uint64_t run_pass(const Workload& w, const std::vector<Unit>& units,
                       Fixture& fx, Tracer& tr,
                       std::vector<Outcome>& outcomes) {
  outcomes.clear();
  const bool routed = w.routed;
  // Price the text path off the ledger wherever no node sees text.
  const bool off_path_text = w.mix != Mix::kHot || routed;
  std::int64_t next_id = 0;
  std::uint64_t upstream_uid = 1;
  const std::uint64_t start = now_ns();
  for (const Unit& u : units) {
    const std::int32_t root = tr.open("batch", -1);
    const auto n = static_cast<std::uint32_t>(u.lines.size());
    // What the node receives for each request: the client's own frame or
    // lines when direct, one upstream frame per request when routed.
    std::vector<std::string> upstream(u.lines.size());
    // `views` point into `reader`'s buffer: both live for the whole unit.
    ts::net::FrameReader reader;
    std::vector<std::string_view> views;
    std::vector<ts::net::LineFramer::Line> text_lines;
    if (u.text) {
      tr.call(routed ? "cluster.line_split" : "net.line_split", root, -1, true,
              [&] {
                ts::net::LineFramer framer;
                text_lines = framer.feed(u.client_bytes.data(),
                                         u.client_bytes.size());
              },
              n);
    } else {
      tr.call(routed ? "cluster.decode" : "net.frame_decode", root, -1, true,
              [&] { views = decode_frame(reader, u.client_bytes); }, n);
    }
    for (std::size_t i = 0; i < u.lines.size(); ++i) {
      const std::int64_t id = next_id++;
      const std::int32_t req_span = tr.open("request", id);
      ts::RequestLine owned;
      ts::RequestView view;
      const char* parse_name = routed ? "cluster.parse"
                               : u.text ? "net.parse_v2"
                                        : "net.parse";
      tr.call(parse_name, req_span, id, true, [&] {
        if (u.text) {
          owned = ts::parse_request_line(text_lines[i].text);
          view = ts::as_view(owned);
        } else {
          view = parse_view(views[i]);
        }
      });
      if (off_path_text) {
        // No node sees text on this workload: price the text path here.
        const std::string wire = u.lines[i] + "\n";
        std::vector<ts::net::LineFramer::Line> split;
        tr.call("net.line_split", req_span, id, false, [&] {
          ts::net::LineFramer framer;
          split = framer.feed(wire.data(), wire.size());
        });
        ts::RequestLine parsed;
        tr.call("net.parse_v2", req_span, id, false,
                [&] { parsed = ts::parse_request_line(u.lines[i]); });
      }
      upstream[i] = route(fx, tr, req_span, id, routed, view.tree_spec,
                          u.lines[i] + " id=" + std::to_string(upstream_uid++));
      ts::RequestView node_view = view;
      std::vector<std::string_view> node_views;
      ts::net::FrameReader node_reader;
      if (routed) {
        tr.call("net.frame_decode", req_span, id, true,
                [&] { node_views = decode_frame(node_reader, upstream[i]); });
        tr.call("net.parse", req_span, id, true,
                [&] { node_view = parse_view(node_views[0]); });
      }
      Outcome outcome;
      ResponseLine answer = serve(fx, tr, req_span, id, node_view, outcome);
      answer.id = node_view.id;
      std::string node_out;
      const bool node_text = u.text && !routed;
      if (node_text) {
        tr.call("net.encode_v2", req_span, id, true,
                [&] { node_out = ts::format_response_line(answer); });
      } else {
        tr.call("net.encode_v3", req_span, id, true,
                [&] { ts::net::FrameWriter(node_out).response(answer); });
      }
      if (off_path_text) {
        std::string text_out;
        tr.call("net.encode_v2", req_span, id, false,
                [&] { text_out = ts::format_response_line(answer); });
      }
      if (routed) route_back(tr, req_span, id, node_out, u.text);
      tr.close(req_span);
      outcomes.push_back(outcome);
    }
    tr.close(root);
  }
  return now_ns() - start;
}

/// Per-algorithm probes on the stream's first small trees, so every
/// scheduler is priced on every workload's trees (off the ledger path).
void probe_schedulers(const Stream& stream, Fixture& fx, Tracer& tr) {
  std::size_t probed = 0;
  for (std::size_t t = 0; t < stream.trees.size() && probed < kProbeTrees; ++t) {
    const ts::Tree& tree = stream.trees[t].tree;
    if (tree.size() > kProbeMaxNodes) continue;
    ++probed;
    int p = 2;
    for (const Request& r : stream.requests) {
      if (r.tree == t) {
        p = r.p;
        break;
      }
    }
    for (const auto& [algo, sched] : fx.schedulers) {
      ts::Schedule s;
      tr.call(sched_span(algo), -1, -1, false,
              [&] { s = sched->schedule(tree, ts::Resources{p, 0}); });
      tr.call("core.simulate", -1, -1, false, [&] { (void)ts::simulate(tree, s); });
    }
    tr.call("cluster.fingerprint", -1, -1, false,
            [&] { (void)ts::tree_fingerprint(tree); });
  }
}

/// Median round trip of `request` bytes out and `response` bytes back
/// over a loopback TCP connection to an echo thread, in us.
double loopback_rtt_us(const std::string& request, const std::string& response) {
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (listener >= 0) ::close(listener);
    throw StepError("loopback echo: listen failed");
  }
  auto io_all = [](int fd, char* data, std::size_t n, bool write) {
    std::size_t done = 0;
    while (done < n) {
      const ssize_t r = write ? ::send(fd, data + done, n - done, MSG_NOSIGNAL)
                              : ::recv(fd, data + done, n - done, 0);
      if (r <= 0) return false;
      done += static_cast<std::size_t>(r);
    }
    return true;
  };
  std::thread echo([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    std::string in(request.size(), '\0');
    std::string out = response;
    for (int i = 0; i < kEchoRounds; ++i) {
      if (!io_all(fd, in.data(), in.size(), false) ||
          !io_all(fd, out.data(), out.size(), true)) {
        break;
      }
    }
    ::close(fd);
  });
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  bool ok = fd >= 0 &&
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  std::string out = request;
  std::string in(response.size(), '\0');
  std::vector<double> rtt;
  for (int i = 0; ok && i < kEchoRounds; ++i) {
    const std::uint64_t start = now_ns();
    ok = io_all(fd, out.data(), out.size(), true) &&
         io_all(fd, in.data(), in.size(), false);
    rtt.push_back(static_cast<double>(now_ns() - start) * 1e-3);
  }
  if (fd >= 0) ::close(fd);
  echo.join();
  ::close(listener);
  if (!ok) throw StepError("loopback echo: connection failed");
  return median(rtt);
}

}  // namespace

ReplayResult replay(const Workload& workload, const Stream& stream,
                    const std::vector<Answer>& served, std::uint64_t seed,
                    bool traced) {
  ReplayResult result;
  const bool hot = workload.mix == Mix::kHot;
  const std::vector<Unit> units =
      hot ? hot_units(stream, seed, traced ? kHotBatches : 0)
          : stream_units(stream, traced ? kColdTrees : kCheckTrees);
  for (const Unit& u : units) result.requests += u.lines.size();

  // The hot fixture holds the warmed pool: a server after its warm-up.
  // It is built once, its warm-up calls timed off the ledger path; hot
  // passes only read it (cache hits, memo hits).
  Tracer setup(traced);
  auto make_fixture = [&] {
    auto fx = std::make_unique<Fixture>(workload.routed ? 2 : 1);
    if (hot) {
      std::vector<ts::ScheduleRequest> reqs;
      for (const TreeInfo& t : stream.trees) {
        ts::Tree tree;
        ts::TreeHandle h;
        setup.call(resolve_span(t.spec), -1, -1, false,
                   [&] { tree = ts::tree_from_spec(t.spec); });
        setup.call("service.intern", -1, -1, false,
                   [&] { h = fx->service.try_intern(std::move(tree)).value(); });
        fx->memo.emplace(t.spec, h);
        fx->fingerprints.emplace(t.spec, h.hash);
      }
      for (const Request& r : stream.requests) {
        ts::ScheduleRequest req;
        req.tree = fx->memo.at(stream.trees[r.tree].spec);
        req.algo = r.algo;
        req.p = r.p;
        reqs.push_back(req);
      }
      const std::vector<ts::ScheduleResponse> warm = fx->service.schedule_batch(reqs);
      for (std::size_t k = 0; k < warm.size(); ++k) {
        const std::string label = "algo=\"" + reqs[k].algo + "\"";
        setup.call("obs.algo_histogram", -1, -1, false, [&] {
          fx->registry
              .histogram("treesched_algo_compute_seconds", label, "",
                         ts::obs::Histogram::latency_bounds_ns(), 1e-9)
              .record(1);
        });
        auto cached = std::make_shared<ts::CachedResult>();
        cached->makespan = warm[k].makespan;
        cached->peak_memory = warm[k].peak_memory;
        setup.call("service.cache_put", -1, -1, false, [&] {
          ts::ResultKey key;
          key.tree_uid = reqs[k].tree.uid;
          key.algo = reqs[k].algo;
          key.p = reqs[k].p;
          fx->cache.put(key, cached);
        });
      }
      // Every warm-up answer the servers gave must equal the direct
      // registry call's result.
      for (std::size_t k = 0; k < warm.size(); ++k) {
        const Answer& a = served[k];
        ++result.checked;
        if (!warm[k].ok() || !a.received || !same_bits(a.makespan, warm[k].makespan) ||
            a.peak_memory != static_cast<std::uint64_t>(warm[k].peak_memory)) {
          ++result.mismatched;
          if (result.errors.size() < 5) {
            result.errors.push_back("warm-up answer differs from in-process: \"" +
                                    stream.requests[k].line + "\"");
          }
        }
      }
    }
    return fx;
  };

  std::unique_ptr<Fixture> shared = hot ? make_fixture() : nullptr;
  std::vector<Outcome> outcomes;
  std::vector<double> off_ns, on_ns;
  Tracer kept(true);
  const int passes = traced ? kPasses : 1;
  for (int pass = 0; pass < passes; ++pass) {
    for (const bool on : {false, true}) {
      if (on && !traced) continue;
      std::unique_ptr<Fixture> fresh = hot ? nullptr : make_fixture();
      Fixture& fx = hot ? *shared : *fresh;
      Tracer tr(on);
      const std::uint64_t ns = run_pass(workload, units, fx, tr, outcomes);
      (on ? on_ns : off_ns).push_back(static_cast<double>(ns));
      if (on) kept = std::move(tr);
    }
  }

  if (!hot) {
    // Cold/capped: each replayed request's in-process result must equal
    // the served answer bit for bit.
    std::size_t k = 0;
    for (const Unit& u : units) {
      const std::size_t idx = u.index[0];
      const Outcome& o = outcomes[k++];
      const Answer& a = served[idx];
      ++result.checked;
      if (!a.received || !o.computed || !same_bits(a.makespan, o.makespan) ||
          a.peak_memory != static_cast<std::uint64_t>(o.peak_memory)) {
        ++result.mismatched;
        if (result.errors.size() < 5) {
          result.errors.push_back("served answer differs from in-process: \"" +
                                  u.lines[0] + "\"");
        }
      }
    }
  }
  if (!traced) return result;

  {
    std::unique_ptr<Fixture> fx = hot ? nullptr : make_fixture();
    probe_schedulers(stream, hot ? *shared : *fx, setup);
  }
  result.spans = std::move(kept.spans());
  // Setup and probe spans are roots: appending keeps parent indices valid.
  result.spans.insert(result.spans.end(), setup.spans().begin(),
                      setup.spans().end());
  // Self time: a span's duration minus its children's.
  std::vector<double> self(result.spans.size());
  for (std::size_t i = 0; i < result.spans.size(); ++i) {
    const Span& s = result.spans[i];
    self[i] += static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  double path_ns = 0.0;
  for (std::size_t i = 0; i < result.spans.size(); ++i) {
    const Span& s = result.spans[i];
    LayerCost& layer = result.layers[s.name];
    layer.self_ns += self[i];
    layer.calls += s.covers;
    if (s.on_path) path_ns += self[i];
  }
  result.path_ns_per_request =
      result.requests == 0 ? 0.0 : path_ns / static_cast<double>(result.requests);
  result.trace_overhead_pct = 100.0 * (median(on_ns) / median(off_ns) - 1.0);

  // Loopback: one batch (16 requests) out, its 16 answers back.
  // A hot unit is already a 16-request batch; cold units are single
  // requests, so take sixteen of them.
  std::string request_bytes, response_bytes;
  for (std::size_t i = 0; i < units.size() && i < (hot ? 1 : kBatch); ++i) {
    request_bytes += units[i].client_bytes;
  }
  for (std::size_t i = 0; i < kBatch; ++i) {
    const Request& r = stream.requests[i % stream.requests.size()];
    ResponseLine line;
    line.ok = true;
    line.tree_hash = stream.trees[r.tree].fingerprint;
    line.n = stream.trees[r.tree].tree.size();
    line.algo = r.algo;
    line.p = r.p;
    line.makespan = r.makespan_lb;
    ts::net::FrameWriter(response_bytes).response(line);
  }
  result.loopback_rtt_us = loopback_rtt_us(request_bytes, response_bytes);
  return result;
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "name\tstart_ns\tend_ns\tparent\trequest\n";
  for (const Span& s : spans) {
    out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent
        << '\t' << s.request << '\n';
  }
}

}  // namespace perfbench
