#include "load.hpp"

#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "net/client.hpp"
#include "proc.hpp"

namespace perfbench {

using treesched::ResponseLine;
using treesched::net::Client;
using treesched::net::Protocol;

namespace {

constexpr double kReadyTimeout = 20.0;  // s, spawn to listening/pong/nodes_up
constexpr double kDrainTimeout = 20.0;  // s, SIGTERM to exit
constexpr int kRecvTimeout = 60;        // s, any single blocking read
constexpr std::size_t kBatch = 16;      // hot: requests per frame / pipeline
constexpr std::size_t kWindow = 8;      // cold/capped: in flight per connection
constexpr std::size_t kMaxErrors = 5;   // wrong answers described per round

Client connect_to(std::uint16_t port, Protocol protocol) {
  Client client("127.0.0.1", port, protocol);
  timeval tv{kRecvTimeout, 0};
  ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return client;
}

StatsMap stats_of(Client& control) {
  const ResponseLine resp = control.request("stats");
  if (resp.kind != ResponseLine::Kind::kStats) {
    throw StepError("stats verb answered something else");
  }
  return StatsMap(resp.stats.begin(), resp.stats.end());
}

/// The serving processes of one round. shutdown() stops them and checks
/// each drain; on an exception the members' destructors stop them
/// (router first: it is declared last).
class Topology {
 public:
  Topology(const Config& config, bool routed, int round) {
    const int nodes = routed ? 2 : 1;
    for (int i = 0; i < nodes; ++i) {
      const std::string name = routed ? "node" + std::to_string(i) : "server";
      nodes_.push_back(std::make_unique<Child>(
          name,
          std::vector<std::string>{config.server_bin, "--port", "0"},
          config.workdir + "/" + name + "_r" + std::to_string(round) + ".err"));
    }
    for (auto& node : nodes_) {
      node_ports_.push_back(port_of(*node));
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      Client control = connect_to(node_ports_[i], Protocol::kText);
      if (control.request("ping").kind != ResponseLine::Kind::kPong) {
        throw StepError(nodes_[i]->name() + ": ping not answered with pong");
      }
    }
    if (!routed) {
      entry_port_ = node_ports_[0];
      return;
    }
    std::string list;
    for (std::uint16_t port : node_ports_) {
      if (!list.empty()) list += ",";
      list += "127.0.0.1:" + std::to_string(port);
    }
    router_ = std::make_unique<Child>(
        "router",
        std::vector<std::string>{config.router_bin, "--port", "0", "--nodes",
                                 list},
        config.workdir + "/router_r" + std::to_string(round) + ".err");
    entry_port_ = port_of(*router_);
    Client control = connect_to(entry_port_, Protocol::kText);
    const std::uint64_t start = now_ns();
    for (;;) {
      if (stats_of(control)["nodes_up"] == node_ports_.size()) break;
      if (seconds_since(start) > kReadyTimeout) {
        throw StepError("router: nodes_up never reached " +
                        std::to_string(node_ports_.size()));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Router first (its drain closes the upstream pipes), then the nodes.
  void shutdown() {
    if (router_) {
      auto router = std::move(router_);
      router->stop(kDrainTimeout);
    }
    while (!nodes_.empty()) {
      auto node = std::move(nodes_.back());
      nodes_.pop_back();
      node->stop(kDrainTimeout);
    }
  }

  [[nodiscard]] std::uint16_t entry_port() const { return entry_port_; }
  [[nodiscard]] const std::vector<std::uint16_t>& node_ports() const {
    return node_ports_;
  }
  [[nodiscard]] std::vector<pid_t> node_pids() const {
    std::vector<pid_t> pids;
    for (const auto& n : nodes_) pids.push_back(n->pid());
    return pids;
  }
  [[nodiscard]] std::optional<pid_t> router_pid() const {
    if (!router_) return std::nullopt;
    return router_->pid();
  }

 private:
  static std::uint16_t port_of(Child& child) {
    const std::string addr = child.wait_line("listening on ", kReadyTimeout);
    const std::size_t colon = addr.rfind(':');
    if (colon == std::string::npos) {
      throw StepError(child.name() + ": unreadable listening line \"" + addr +
                      "\"");
    }
    return static_cast<std::uint16_t>(std::stoi(addr.substr(colon + 1)));
  }

  std::vector<std::unique_ptr<Child>> nodes_;
  std::unique_ptr<Child> router_;
  std::vector<std::uint16_t> node_ports_;
  std::uint16_t entry_port_ = 0;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

std::string describe(const std::string& line, const ResponseLine& got) {
  std::ostringstream os;
  os << "\"" << line << "\" -> " << treesched::format_response_line(got);
  return os.str();
}

/// Starts the timed phase once every load thread has connected. Each one
/// arrives exactly once (a failed one too, so nobody waits on it).
class Gate {
 public:
  explicit Gate(int threads) : waiting_(threads) {}

  void arrive() { waiting_.fetch_sub(1, std::memory_order_acq_rel); }
  void wait() const {
    while (!open_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  /// Main thread: returns once every load thread has arrived.
  void wait_all_arrived() const {
    while (waiting_.load(std::memory_order_acquire) > 0) std::this_thread::yield();
  }
  void open() { open_.store(true, std::memory_order_release); }

 private:
  std::atomic<int> waiting_;
  std::atomic<bool> open_{false};
};

/// Joins the load threads on every path out of the timed phase (an
/// exception included: the gate opens so no thread waits forever).
struct LoadThreads {
  Gate gate{2};
  std::vector<std::thread> threads;

  ~LoadThreads() { join(); }
  void join() {
    gate.open();
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

/// Counts and samples of one load thread.
struct LoadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<float> latency_us;
  std::vector<float> interactive_us;
  std::vector<std::string> errors;
  std::uint64_t cpu_ns = 0;
  std::string fatal;  ///< a step failure (lost connection, timeout)

  void wrong(std::string what) {
    ++failed;
    if (errors.size() < kMaxErrors) errors.push_back(std::move(what));
  }
};

/// The expected answer to one hot key, in both protocols' shapes.
struct HotKey {
  std::string line[2];     ///< [interactive] wire line
  ResponseLine expect[2];  ///< v3: decoded frame fields
  std::string text[2];     ///< text v2: the exact response line
};

std::vector<HotKey> hot_keys(const Stream& stream,
                             const std::vector<ResponseLine>& warm) {
  std::vector<HotKey> keys(stream.requests.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (int inter = 0; inter < 2; ++inter) {
      keys[k].line[inter] = stream.requests[k].line + priority_field(inter != 0);
      ResponseLine want = warm[k];
      want.cache_hit = true;
      want.priority = inter ? treesched::Priority::kInteractive
                            : treesched::Priority::kBulk;
      keys[k].text[inter] = treesched::format_response_line(want);
      keys[k].expect[inter] = std::move(want);
    }
  }
  return keys;
}

bool same_answer(const ResponseLine& got, const ResponseLine& want) {
  return got.kind == ResponseLine::Kind::kSchedule && got.ok &&
         got.cache_hit == want.cache_hit && got.tree_hash == want.tree_hash &&
         got.n == want.n && got.algo == want.algo && got.p == want.p &&
         same_bits(got.makespan, want.makespan) &&
         got.peak_memory == want.peak_memory && got.priority == want.priority &&
         !got.id;
}

/// hot/routed: closed loop of 16-request batches until `seconds` pass.
void drive_hot(std::uint16_t port, Protocol protocol,
               const std::vector<HotKey>& keys, HotPicker picker,
               double seconds, Gate& gate, LoadResult& out) {
  bool arrived = false;
  try {
    Client client = connect_to(port, protocol);
    std::vector<std::string> lines(kBatch);
    std::vector<std::size_t> picked(kBatch);
    bool inter[kBatch];
    out.latency_us.reserve(1 << 22);
    gate.arrive();
    arrived = true;
    gate.wait();
    const std::uint64_t cpu0 = self_thread_cpu_ns();
    const std::uint64_t start = now_ns();
    const auto deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        picker.next(picked[i], inter[i]);
        lines[i] = keys[picked[i]].line[inter[i]];
      }
      const std::uint64_t sent = now_ns();
      client.send_batch(lines);
      out.attempted += kBatch;
      for (std::size_t i = 0; i < kBatch; ++i) {
        const HotKey& key = keys[picked[i]];
        bool ok = false;
        std::string got_text;
        if (protocol == Protocol::kText) {
          std::optional<std::string> line = client.recv_line();
          if (!line) throw StepError("server closed the text connection");
          ok = *line == key.text[inter[i]];
          if (!ok) got_text = *line;
        } else {
          std::optional<ResponseLine> resp = client.recv_response();
          if (!resp) throw StepError("server closed the v3 connection");
          ok = same_answer(*resp, key.expect[inter[i]]);
          if (!ok) got_text = treesched::format_response_line(*resp);
        }
        const auto us = static_cast<float>(static_cast<double>(now_ns() - sent) * 1e-3);
        if (!ok) {
          out.wrong("\"" + lines[i] + "\" -> " + got_text + " (want " +
                    key.text[inter[i]] + ")");
          continue;
        }
        out.latency_us.push_back(us);
        if (inter[i]) out.interactive_us.push_back(us);
      }
    }
    out.cpu_ns = self_thread_cpu_ns() - cpu0;
  } catch (const std::exception& e) {
    out.fatal = e.what();
    if (!arrived) gate.arrive();
  }
}

/// cold/capped: `kWindow` tagged requests in flight, drawn from a cursor
/// shared with the other connection, until the stream is exhausted.
void drive_stream(std::uint16_t port, const Stream& stream,
                  std::atomic<std::size_t>& cursor, Gate& gate,
                  std::vector<std::uint64_t>& sent_ns,
                  std::vector<Answer>& answers, LoadResult& out) {
  bool arrived = false;
  try {
    Client client = connect_to(port, Protocol::kV3);
    const std::size_t total = stream.requests.size();
    gate.arrive();
    arrived = true;
    gate.wait();
    const std::uint64_t cpu0 = self_thread_cpu_ns();
    std::size_t in_flight = 0;
    bool exhausted = false;
    for (;;) {
      while (!exhausted && in_flight < kWindow) {
        const std::size_t idx = cursor.fetch_add(1);
        if (idx >= total) {
          exhausted = true;
          break;
        }
        const Request& r = stream.requests[idx];
        sent_ns[idx] = now_ns();
        client.send_request(r.line + priority_field(r.interactive) +
                            " id=" + std::to_string(idx));
        ++out.attempted;
        ++in_flight;
      }
      if (in_flight == 0) break;
      std::optional<ResponseLine> resp = client.recv_response();
      if (!resp) throw StepError("server closed the v3 connection");
      if (!resp->id || *resp->id >= total) {
        throw StepError("answer with an unknown id: " +
                        treesched::format_response_line(*resp));
      }
      --in_flight;
      const std::size_t idx = *resp->id;
      const Request& r = stream.requests[idx];
      const TreeInfo& tree = stream.trees[r.tree];
      const auto us = static_cast<float>(static_cast<double>(now_ns() - sent_ns[idx]) * 1e-3);
      const bool ok =
          resp->kind == ResponseLine::Kind::kSchedule && resp->ok &&
          !resp->cache_hit && resp->tree_hash == tree.fingerprint &&
          resp->n == tree.tree.size() && resp->algo == r.algo &&
          resp->p == r.p &&
          resp->priority == (r.interactive ? treesched::Priority::kInteractive
                                           : treesched::Priority::kBulk) &&
          (r.peak_limit == 0 || resp->peak_memory <= r.peak_limit);
      if (!ok) {
        out.wrong(describe(r.line, *resp));
        continue;
      }
      answers[idx] = Answer{true, resp->makespan, resp->peak_memory};
      out.latency_us.push_back(us);
      if (r.interactive) out.interactive_us.push_back(us);
    }
    out.cpu_ns = self_thread_cpu_ns() - cpu0;
  } catch (const std::exception& e) {
    out.fatal = e.what();
    if (!arrived) gate.arrive();
  }
}

/// hot/routed warm-up: every pool key once, 16 to a v3 batch, each under
/// its pool class. Returns the answers, checked against the local trees
/// and, when given, against `same_as` (an earlier warm-up's answers).
std::vector<ResponseLine> warm_hot(std::uint16_t port, const Stream& stream,
                                   const std::vector<ResponseLine>* same_as) {
  Client client = connect_to(port, Protocol::kV3);
  std::vector<ResponseLine> warm(stream.requests.size());
  for (std::size_t base = 0; base < warm.size(); base += kBatch) {
    const std::size_t end = std::min(warm.size(), base + kBatch);
    std::vector<std::string> lines;
    for (std::size_t k = base; k < end; ++k) {
      const Request& r = stream.requests[k];
      lines.push_back(r.line + priority_field(r.interactive));
    }
    client.send_batch(lines);
    for (std::size_t k = base; k < end; ++k) {
      std::optional<ResponseLine> resp = client.recv_response();
      if (!resp) throw StepError("warm-up: server closed the connection");
      const Request& r = stream.requests[k];
      const TreeInfo& tree = stream.trees[r.tree];
      if (resp->kind != ResponseLine::Kind::kSchedule || !resp->ok ||
          resp->tree_hash != tree.fingerprint || resp->n != tree.tree.size() ||
          resp->algo != r.algo || resp->p != r.p ||
          (same_as && (!same_bits(resp->makespan, (*same_as)[k].makespan) ||
                       resp->peak_memory != (*same_as)[k].peak_memory))) {
        throw StepError("warm-up answer is wrong: " + describe(r.line, *resp));
      }
      warm[k] = *std::move(resp);
    }
  }
  return warm;
}

/// cold/capped warm-up: throwaway trees that start the pool threads.
void warm_pool(std::uint16_t port, const std::vector<std::string>& lines) {
  Client client = connect_to(port, Protocol::kV3);
  client.send_batch(lines);
  for (const std::string& line : lines) {
    std::optional<ResponseLine> resp = client.recv_response();
    if (!resp || !resp->ok) {
      throw StepError("warm-up request failed: \"" + line + "\"");
    }
  }
}

struct CpuSnapshot {
  std::uint64_t io = 0, pool = 0, router = 0;
  std::size_t pool_threads = 0;
};

CpuSnapshot read_cpu(const Topology& topo) {
  CpuSnapshot s;
  for (pid_t pid : topo.node_pids()) {
    const ProcCpu cpu = read_proc_cpu(pid);
    s.io += cpu.main_ns;
    s.pool += cpu.others_ns;
    s.pool_threads += cpu.others;
  }
  if (const auto pid = topo.router_pid()) {
    const ProcCpu cpu = read_proc_cpu(*pid);
    s.router = cpu.main_ns + cpu.others_ns;
  }
  return s;
}

/// Node stats summed over nodes (and the per-node maximum).
void node_stats(std::vector<Client>& controls, StatsMap& sum, StatsMap* max) {
  sum.clear();
  for (Client& c : controls) {
    for (const auto& [key, value] : stats_of(c)) {
      sum[key] += value;
      if (max) (*max)[key] = std::max((*max)[key], value);
    }
  }
}

}  // namespace

RoundResult run_round(const Config& config, const Workload& workload,
                      bool routed, const Stream& stream, std::uint64_t seed,
                      int round, double hot_seconds) {
  RoundResult result;
  result.nodes = routed ? 2 : 1;
  result.answers.assign(stream.requests.size(), Answer{});
  const std::uint64_t spawned = now_ns();
  Topology topo(config, routed, round);
  const std::uint16_t port = topo.entry_port();

  std::vector<HotKey> keys;
  if (workload.mix == Mix::kHot) {
    // Every node is warmed with the whole pool (concurrently), so a key
    // the router's bounded-load policy sends to its second node still
    // hits; a last pass through the router warms its spec -> fingerprint
    // memo. All passes must give the same answers.
    std::vector<std::future<std::vector<ResponseLine>>> others;
    for (std::size_t i = 1; i < topo.node_ports().size(); ++i) {
      others.push_back(std::async(std::launch::async, warm_hot,
                                  topo.node_ports()[i], std::cref(stream), nullptr));
    }
    const std::vector<ResponseLine> warm =
        warm_hot(topo.node_ports()[0], stream, nullptr);
    for (auto& other : others) {
      const std::vector<ResponseLine> answers = other.get();
      for (std::size_t k = 0; k < warm.size(); ++k) {
        if (!same_bits(answers[k].makespan, warm[k].makespan) ||
            answers[k].peak_memory != warm[k].peak_memory) {
          throw StepError("warm-up: nodes disagree on \"" +
                          stream.requests[k].line + "\"");
        }
      }
    }
    if (routed) (void)warm_hot(port, stream, &warm);
    for (std::size_t k = 0; k < warm.size(); ++k) {
      result.answers[k] = Answer{true, warm[k].makespan, warm[k].peak_memory};
    }
    keys = hot_keys(stream, warm);
  } else {
    warm_pool(port, warmup_lines(workload.mix, seed, round));
  }
  result.setup_s = seconds_since(spawned);

  {
    std::vector<Client> controls;
    for (std::uint16_t p : topo.node_ports()) {
      controls.push_back(connect_to(p, Protocol::kText));
    }
    node_stats(controls, result.stats_before, nullptr);

    std::atomic<std::size_t> cursor{0};
    std::vector<std::uint64_t> sent_ns(stream.requests.size());
    LoadResult loads[2];
    LoadThreads run;
    for (int c = 0; c < 2; ++c) {
      if (workload.mix == Mix::kHot) {
        // One binary-v3 connection and one text-v2 connection.
        run.threads.emplace_back(
            drive_hot, port, c == 0 ? Protocol::kV3 : Protocol::kText,
            std::cref(keys), HotPicker(seed, round, c, keys.size()), hot_seconds,
            std::ref(run.gate), std::ref(loads[c]));
      } else {
        run.threads.emplace_back(drive_stream, port, std::cref(stream),
                                 std::ref(cursor), std::ref(run.gate),
                                 std::ref(sent_ns), std::ref(result.answers),
                                 std::ref(loads[c]));
      }
    }
    run.gate.wait_all_arrived();
    const CpuSnapshot before = read_cpu(topo);
    const std::uint64_t timed_start = now_ns();
    run.gate.open();
    run.join();
    result.timed_s = seconds_since(timed_start);
    const CpuSnapshot after = read_cpu(topo);
    result.round_s = seconds_since(spawned);

    for (LoadResult& d : loads) {
      if (!d.fatal.empty()) throw StepError("load connection: " + d.fatal);
      result.attempted += d.attempted;
      result.failed += d.failed;
      result.loadgen_cpu_ns += d.cpu_ns;
      result.latency_us.insert(result.latency_us.end(), d.latency_us.begin(),
                               d.latency_us.end());
      result.interactive_us.insert(result.interactive_us.end(),
                                   d.interactive_us.begin(), d.interactive_us.end());
      for (std::string& e : d.errors) {
        if (result.errors.size() < kMaxErrors) result.errors.push_back(std::move(e));
      }
    }
    result.io_cpu_ns = after.io - before.io;
    result.backend_cpu_ns = (after.io + after.pool) - (before.io + before.pool);
    result.pool_cpu_round_ns = after.pool;
    result.pool_threads = after.pool_threads;
    result.router_cpu_ns = after.router - before.router;
    for (pid_t pid : topo.node_pids()) result.rss_mb += peak_rss_mb(pid);
    if (const auto pid = topo.router_pid()) result.rss_mb += peak_rss_mb(*pid);

    node_stats(controls, result.stats_after, &result.stats_max);
    if (routed) {
      Client control = connect_to(port, Protocol::kText);
      result.router_stats = stats_of(control);
    }
  }
  topo.shutdown();
  return result;
}

}  // namespace perfbench
