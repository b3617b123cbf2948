#pragma once
// In-process serving tiers for the wire-level suites: a schedule server
// (its service, its I/O thread), a cluster router in front of backend
// nodes, and TierHarness, which runs one test body against either — the
// server, or a router over one in-process node — so every client-side
// protocol test covers the session code both tiers share.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/router.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "test_helpers.hpp"

namespace treesched::testing {

/// Service + server + I/O thread, torn down in the right order.
class ServerHarness {
 public:
  explicit ServerHarness(net::ServerConfig config = {},
                         ServiceConfig service_config = {})
      : service_(service_config), server_(service_, std::move(config)) {
    thread_ = std::thread([this] { server_.run(); });
  }

  ~ServerHarness() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_.stop();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] std::uint16_t metrics_port() const {
    return server_.metrics_port();
  }
  [[nodiscard]] std::string name() const {
    return "127.0.0.1:" + std::to_string(port());
  }
  [[nodiscard]] SchedulingService& service() { return service_; }

 private:
  SchedulingService service_;
  net::Server server_;
  std::thread thread_;
};

/// Router + I/O thread. Health cadence is cranked way down so tests
/// converge in milliseconds instead of the production quarter-second.
class RouterHarness {
 public:
  explicit RouterHarness(std::vector<std::string> nodes,
                         cluster::RouterConfig config = {}) {
    config.nodes = std::move(nodes);
    if (config.health_interval_ms == 250.0) config.health_interval_ms = 10.0;
    if (config.ping_timeout_ms == 2000.0) config.ping_timeout_ms = 1000.0;
    if (config.reconnect_backoff_ms == 500.0) {
      config.reconnect_backoff_ms = 20.0;
    }
    router_ = std::make_unique<cluster::Router>(std::move(config));
    thread_ = std::thread([this] { router_->run(); });
  }

  ~RouterHarness() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      router_->stop();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return router_->port(); }
  [[nodiscard]] cluster::Router& router() { return *router_; }

  /// Polls the router's own `stats` verb until it reports `n` live
  /// backends — requests sent before the first health tick connects
  /// would be answered node_unavailable, which is correct but not what
  /// a routing test wants to measure. The probe half-closes and reads
  /// to EOF, so its session is gone when this returns.
  [[nodiscard]] bool wait_nodes_up(std::uint64_t n,
                                   std::chrono::milliseconds deadline =
                                       std::chrono::milliseconds(5000)) {
    net::Client probe("127.0.0.1", port());
    const auto until = std::chrono::steady_clock::now() + deadline;
    bool up = false;
    while (!up && std::chrono::steady_clock::now() < until) {
      const ResponseLine stats = probe.request("stats");
      for (const auto& [key, value] : stats.stats) {
        if (key == "nodes_up" && value >= n) up = true;
      }
      if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    probe.shutdown_write();
    while (probe.recv_line()) {
    }
    return up;
  }

 private:
  std::unique_ptr<cluster::Router> router_;
  std::thread thread_;
};

/// One serving tier under test. kServer is a server; kRouter is a router
/// over one in-process node, with the client-facing settings of
/// `config` (its FrontendConfig) applied to the router (the node keeps
/// a window large enough never to refuse the router's forwards). Either
/// way clients connect to port() and service() is the service that
/// computes.
class TierHarness {
 public:
  enum class Kind { kServer, kRouter };

  TierHarness(Kind kind, const net::ServerConfig& config) : kind_(kind) {
    if (kind == Kind::kServer) {
      node_ = std::make_unique<ServerHarness>(config);
      return;
    }
    net::ServerConfig node_config;
    node_config.frontend.session.max_pending = 4096;
    node_ = std::make_unique<ServerHarness>(node_config);
    cluster::RouterConfig router_config;
    router_config.frontend = config.frontend;
    router_ = std::make_unique<RouterHarness>(
        std::vector<std::string>{node_->name()}, router_config);
    EXPECT_TRUE(router_->wait_nodes_up(1)) << "the node never came up";
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] std::uint16_t port() const {
    return router_ ? router_->port() : node_->port();
  }
  [[nodiscard]] std::uint16_t metrics_port() const {
    return router_ ? router_->router().metrics_port() : node_->metrics_port();
  }
  [[nodiscard]] SchedulingService& service() { return node_->service(); }
  [[nodiscard]] net::Client connect(
      net::Protocol protocol = net::Protocol::kText) const {
    return net::Client("127.0.0.1", port(), protocol);
  }

 private:
  Kind kind_;
  std::unique_ptr<ServerHarness> node_;
  std::unique_ptr<RouterHarness> router_;
};

/// Runs `body(tier)` against the server, then against a router over one
/// node, both configured from `config`.
template <typename Body>
void for_each_tier(const net::ServerConfig& config, Body&& body) {
  for (const TierHarness::Kind kind :
       {TierHarness::Kind::kServer, TierHarness::Kind::kRouter}) {
    SCOPED_TRACE(kind == TierHarness::Kind::kServer ? "tier: server"
                                                    : "tier: router");
    TierHarness tier(kind, config);
    body(tier);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// One `GET /metrics` from the scrape endpoint on 127.0.0.1:`port`; the
/// response body (empty on failure).
inline std::string scrape_metrics(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string response;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buf[4096];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        response.append(buf, static_cast<std::size_t>(n));
      }
    }
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? std::string{} : response.substr(body + 4);
}

/// The value of the sample spelled `series` (name plus its `{labels}`)
/// in a Prometheus exposition; NaN when absent.
inline double metric_value(const std::string& exposition,
                           const std::string& series) {
  const std::string needle = "\n" + series + " ";
  const std::size_t at = ("\n" + exposition).find(needle);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::strtod(exposition.c_str() + at + needle.size() - 1, nullptr);
}

/// The keys of a `stats` answer, in answer order.
inline std::vector<std::string> stats_keys(const ResponseLine& stats) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : stats.stats) keys.push_back(key);
  return keys;
}

/// The series of a Prometheus exposition: `name{labels}` of every
/// scalar sample and the `_count` series of every histogram. The
/// bucket, sum and sliding-window lines a histogram also renders are
/// left out; test_obs pins how they derive from the same series.
inline std::vector<std::string> exposition_series(
    const std::string& exposition) {
  std::vector<std::string> histograms;
  std::vector<std::string> series;
  std::size_t at = 0;
  while (at < exposition.size()) {
    std::size_t end = exposition.find('\n', at);
    if (end == std::string::npos) end = exposition.size();
    const std::string line = exposition.substr(at, end - at);
    at = end + 1;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t space = line.find(' ', 7);
      if (line.substr(space + 1) == "histogram") {
        histograms.push_back(line.substr(7, space - 7));
      }
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    const std::string sample = line.substr(0, line.rfind(' '));
    const std::string name = sample.substr(0, sample.find('{'));
    bool derived = false;
    for (const std::string& h : histograms) {
      for (const char* suffix :
           {"_bucket", "_sum", "_window", "_window_count"}) {
        derived = derived || name == h + suffix;
      }
    }
    if (!derived) series.push_back(sample);
  }
  return series;
}

/// Expects `got` to hold exactly the strings of `want`, each once, and
/// names the missing, the unexpected and the repeated ones.
inline void expect_same_set(std::vector<std::string> got,
                            std::vector<std::string> want) {
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  std::vector<std::string> missing, unexpected, repeated;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(unexpected));
  for (std::size_t i = 1; i < got.size(); ++i) {
    if (got[i] == got[i - 1]) repeated.push_back(got[i]);
  }
  const auto list = [](const std::vector<std::string>& items) {
    std::string out;
    for (const std::string& item : items) out += "\n  " + item;
    return out;
  };
  EXPECT_TRUE(missing.empty()) << "missing:" << list(missing);
  EXPECT_TRUE(unexpected.empty()) << "unexpected:" << list(unexpected);
  EXPECT_TRUE(repeated.empty()) << "repeated:" << list(repeated);
}

/// A stats key and the Prometheus series that reports the same number.
struct Twin {
  std::string key;
  std::string series;
};

/// Expects every twin to read the same in a `stats` answer on `probe`
/// and in a scrape of `metrics_port` taken right after it. An idle
/// tier answers both from the same state; the retry only waits out a
/// connection still closing or a pool job still counting itself done.
inline void expect_twins_agree(net::Client& probe, std::uint16_t metrics_port,
                               const std::vector<Twin>& twins) {
  std::string mismatches;
  eventually([&] {
    mismatches.clear();
    const ResponseLine stats = probe.request("stats");
    const std::string metrics = scrape_metrics(metrics_port);
    for (const Twin& twin : twins) {
      const auto it = std::find_if(
          stats.stats.begin(), stats.stats.end(),
          [&](const auto& pair) { return pair.first == twin.key; });
      const double scraped = metric_value(metrics, twin.series);
      if (it == stats.stats.end() ||
          static_cast<double>(it->second) != scraped) {
        mismatches += "\n  " + twin.key + "=" +
                      (it == stats.stats.end() ? std::string("absent")
                                               : std::to_string(it->second)) +
                      " but " + twin.series + " " + std::to_string(scraped);
      }
    }
    return mismatches.empty();
  });
  EXPECT_TRUE(mismatches.empty()) << "stats and /metrics disagree:"
                                  << mismatches;
}

}  // namespace treesched::testing
