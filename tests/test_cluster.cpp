// The cluster router (src/cluster/): the consistent-hash ring's wire
// contracts (pinned point hash and spec key, determinism across add
// order, balance, the ~1/N remap property, the failover walk), the
// engineered fingerprint-collision intern test, and in-process
// end-to-end coverage over real loopback sockets — routing by spec key
// against an independently built ring, cluster-wide cache hits through
// the router, a router loop that stays free while a huge spec is
// forwarded, probes that never move placement, node death mid-request
// with retry-on-alternate, the typed node_unavailable error, upstream
// backpressure, router-side cancel, node answers read under the
// protocol's frame bound rather than the clients', node-side spec
// bounds seen through the router, the drain-timeout bound on both the
// router and the server, and the router's stats vocabulary pinned as
// golden tables.

#include "cluster/ring.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/dataset.hpp"
#include "cluster/router.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "service/instance_store.hpp"
#include "service/service.hpp"
#include "test_helpers.hpp"
#include "tier_harness.hpp"
#include "util/hash.hpp"

namespace treesched {
namespace {

/// A fresh /tmp/treesched-<tag>-XXXXXX directory, removed with everything
/// in it when the object goes out of scope. path() is empty if mkdtemp
/// failed.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag) {
    std::string tmpl = "/tmp/treesched-" + tag + "-XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ScopedTempDir(ScopedTempDir&& other) noexcept
      : path_(std::exchange(other.path_, {})) {}
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(ScopedTempDir&&) = delete;
  ~ScopedTempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

using cluster::HashRing;
using cluster::Router;
using cluster::RouterConfig;
using cluster::spec_key;
using net::Client;
using net::ServerConfig;
using testing::eventually;
using testing::RouterHarness;
using testing::ServerHarness;

// ---------------------------------------------------------------------------
// HashRing: the placement function is a wire-level contract.
// ---------------------------------------------------------------------------

TEST(HashRing, PointHashIsThePinnedFnvSplitmixChain) {
  // The ring's point hash must be FNV-1a over the node name folded
  // through the repo's mix64 — never std::hash — because a second
  // router (or this test) has to agree with the first byte-for-byte.
  const auto reference = [](std::string_view node, int replica) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : node) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    return mix64(h ^ mix64(static_cast<std::uint64_t>(replica)));
  };
  for (const std::string_view name :
       {"127.0.0.1:3714", "127.0.0.1:3715", "node-a", ""}) {
    for (int r = 0; r < 8; ++r) {
      EXPECT_EQ(HashRing::point_hash(name, r), reference(name, r))
          << name << " replica " << r;
    }
  }
  EXPECT_NE(HashRing::point_hash("a", 0), HashRing::point_hash("a", 1));
  EXPECT_NE(HashRing::point_hash("a", 0), HashRing::point_hash("b", 0));
}

TEST(HashRing, SpecKeyIsThePinnedFnvSplitmixChainOfTheRawText) {
  // The routing key is FNV-1a over the spec's raw text folded through
  // mix64, the point hash's own chain: every router in front of the same
  // nodes places a spec identically. Golden values, computed once.
  EXPECT_EQ(spec_key("random:500:1"), 0x34518161e46fab2eULL);
  EXPECT_EQ(spec_key("grid:1414:1"), 0x2e8e83cf52003cfdULL);
  EXPECT_EQ(spec_key("synthetic:2000:7"), 0x76ca7e4f9e2123dcULL);
  EXPECT_EQ(spec_key("file:trees/a.tree"), 0xd662c48837c67d7cULL);
  EXPECT_EQ(spec_key(""), 0xc3817c016ba4ff30ULL);
  // The text is not canonicalised: two spellings are two keys.
  EXPECT_NE(spec_key("random:500:1"), spec_key("random:0500:1"));
}

TEST(HashRing, PlacementIsDeterministicAcrossInstancesAndAddOrder) {
  const std::vector<std::string> names{"n0", "n1", "n2", "n3"};
  HashRing forward(64);
  HashRing reversed(64);
  for (const auto& n : names) forward.add(n);
  for (auto it = names.rbegin(); it != names.rend(); ++it) reversed.add(*it);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const std::uint64_t key = mix64(i);
    const auto a = forward.pick(key);
    const auto b = reversed.pick(key);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    // Dense indices depend on add order; the placed NAME must not.
    ASSERT_EQ(forward.node_name(*a), reversed.node_name(*b)) << "key " << i;
  }
}

TEST(HashRing, VirtualNodesBalanceTheKeySpace) {
  constexpr std::size_t kNodes = 4;
  constexpr std::uint64_t kKeys = 100000;
  HashRing ring(64);
  for (std::size_t i = 0; i < kNodes; ++i) {
    ring.add("10.0.0." + std::to_string(i) + ":3714");
  }
  const auto expect_balanced = [&](const char* label, auto key_of) {
    SCOPED_TRACE(label);
    std::vector<std::uint64_t> counts(kNodes, 0);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      const auto node = ring.pick(key_of(i));
      ASSERT_TRUE(node.has_value());
      ++counts[*node];
    }
    // 64 vnodes keep the per-node share spread around 1/sqrt(64) = 12.5%
    // relative; the bounds here are deliberately loose (the spread is a
    // property of the fixed point placement, not sampling noise).
    double chi2 = 0.0;
    const double expected = static_cast<double>(kKeys) / kNodes;
    for (std::size_t i = 0; i < kNodes; ++i) {
      const double share = static_cast<double>(counts[i]) / kKeys;
      EXPECT_GT(share, 0.15) << "node " << i << " starved";
      EXPECT_LT(share, 0.35) << "node " << i << " overloaded";
      const double d = static_cast<double>(counts[i]) - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 5000.0) << "placement skew beyond the vnode spread";
  };
  expect_balanced("mixed 64-bit values",
                  [](std::uint64_t i) { return mix64(0xf1f1f1f1ULL ^ i); });
  // The keys the router places: 100,000 distinct generator specs.
  expect_balanced("spec keys", [](std::uint64_t i) {
    return spec_key("random:" + std::to_string(100 + i % 1000) + ":" +
                    std::to_string(i / 1000));
  });
}

TEST(HashRing, RemovingANodeRemapsOnlyItsKeys) {
  constexpr std::size_t kNodes = 5;
  constexpr std::uint64_t kKeys = 20000;
  HashRing ring(64);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kNodes; ++i) {
    names.push_back("node-" + std::to_string(i));
    ring.add(names.back());
  }
  std::vector<std::size_t> before(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    before[i] = *ring.pick(mix64(i));
  }
  const std::size_t removed = 2;
  ring.remove(names[removed]);
  std::uint64_t moved = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::size_t now = *ring.pick(mix64(i));
    EXPECT_NE(now, removed);
    if (before[i] == removed) {
      ++moved;
    } else {
      // The classic consistent-hashing property: keys that were NOT on
      // the removed node must not move at all.
      ASSERT_EQ(now, before[i]) << "key " << i << " moved gratuitously";
    }
  }
  const double fraction = static_cast<double>(moved) / kKeys;
  EXPECT_GT(fraction, 0.10) << "the removed node held far under 1/N";
  EXPECT_LT(fraction, 0.33) << "the removed node held far over 1/N";
}

TEST(HashRing, WalkIsTheFailoverOrderAndSkipsRemovedNodes) {
  HashRing ring(32);
  for (int i = 0; i < 4; ++i) ring.add("n" + std::to_string(i));
  for (std::uint64_t key : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL}) {
    std::vector<std::size_t> order;
    ring.walk(key, [&](std::size_t node) {
      order.push_back(node);
      return false;
    });
    ASSERT_EQ(order.size(), 4u) << "walk must visit every distinct node";
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(order.front(), *ring.pick(key)) << "primary first";

    // Removing the primary must shift every alternate up one slot and
    // change nothing else — the failover order is shared by the primary
    // pick, retry-on-alternate, and the re-pick after a death.
    HashRing degraded(32);
    for (int i = 0; i < 4; ++i) degraded.add("n" + std::to_string(i));
    degraded.remove("n" + std::to_string(order.front()));
    std::vector<std::size_t> after;
    degraded.walk(key, [&](std::size_t node) {
      after.push_back(node);
      return false;
    });
    EXPECT_EQ(after, std::vector<std::size_t>(order.begin() + 1, order.end()));
  }
}

TEST(HashRing, AddIsIdempotentAndIndicesAreStable) {
  HashRing ring(16);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.pick(7).has_value());
  const std::size_t a = ring.add("a");
  const std::size_t b = ring.add("b");
  EXPECT_EQ(ring.add("a"), a) << "re-adding a present node is a no-op";
  EXPECT_EQ(ring.node_count(), 2u);
  std::vector<std::size_t> before(256);
  for (std::uint64_t i = 0; i < before.size(); ++i) {
    before[i] = *ring.pick(i);
  }
  ring.remove("b");
  for (std::uint64_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(*ring.pick(i), a) << "only one node left";
  }
  // Re-adding restores the exact placement: the index was never freed.
  EXPECT_EQ(ring.add("b"), b);
  for (std::uint64_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(*ring.pick(i), before[i]) << "key " << i;
  }
}

// ---------------------------------------------------------------------------
// Fingerprint collisions: placement may collide, identity may not.
// ---------------------------------------------------------------------------

TEST(Fingerprint, EngineeredCollisionInternsDistinctTrees) {
  // tree_fingerprint chains state = mix64(state ^ v) over the fed
  // values (count, then per node: parent, output, exec, work). The
  // chain is invertible step-by-step, so two single-node trees that
  // differ in output_size can be forced to collide by solving for the
  // exec_size that re-converges the state — no brute force needed:
  //   mix64(S0 ^ o1) ^ e1 == mix64(S0 ^ o2) ^ e2
  const auto feed = [](std::uint64_t s, std::uint64_t v) {
    return mix64(s ^ v);
  };
  std::uint64_t s = 0x5eed5eed5eed5eedULL;
  s = feed(s, 1);  // node count
  s = feed(s, static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(kNoNode)));  // root's parent
  const std::uint64_t o1 = 1, e1 = 1, o2 = 2;
  const std::uint64_t e2 = feed(s, o1) ^ e1 ^ feed(s, o2);

  const Tree a({kNoNode}, {o1}, {e1}, {1.0});
  const Tree b({kNoNode}, {o2}, {e2}, {1.0});
  ASSERT_EQ(tree_fingerprint(a), tree_fingerprint(b))
      << "the engineered collision must actually collide";
  ASSERT_FALSE(trees_identical(a, b));

  // The store must disambiguate by full content comparison: both trees
  // intern (two misses, no false hit) under the same hash bucket but
  // with DISTINCT uids — downstream caches key by uid, so the collision
  // can never alias their results.
  InstanceStore store;
  const TreeHandle ha = store.intern(a);
  const TreeHandle hb = store.intern(b);
  EXPECT_EQ(ha.hash, hb.hash);
  EXPECT_NE(ha.uid, hb.uid);
  EXPECT_TRUE(trees_identical(*ha, a));
  EXPECT_TRUE(trees_identical(*hb, b));
  const InstanceStore::Stats stats = store.stats();
  EXPECT_EQ(stats.unique_trees, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: real backends, a real router, real loopback sockets.
// ---------------------------------------------------------------------------

/// A hand-driven backend speaking just enough v3 to be marked up by the
/// router's health checks (it answers ping and stats control frames)
/// while misbehaving on schedule requests: swallowing them forever
/// (kSilent — fills the router's upstream window/queue) or closing the
/// socket the moment one arrives (kCloseAbruptly — a node death timed
/// exactly mid-request). Deterministic where killing a real server
/// would race its graceful drain. OnPing::kFirstOnly answers the first
/// ping and swallows the rest, which parks one ping in the router's
/// in-flight set for as long as its ping timeout allows.
class FakeNode {
 public:
  enum class OnRequest { kSilent, kCloseAbruptly };
  enum class OnPing { kAnswer, kFirstOnly };

  explicit FakeNode(OnRequest behavior, OnPing pings = OnPing::kAnswer)
      : behavior_(behavior), pings_(pings) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) throw std::runtime_error("FakeNode: socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 8) != 0) {
      ::close(listen_fd_);
      throw std::runtime_error("FakeNode: bind/listen");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }

  ~FakeNode() { stop(); }

  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
      stopping_ = true;
      if (conn_fd_ >= 0) ::shutdown(conn_fd_, SHUT_RDWR);
      ::shutdown(listen_fd_, SHUT_RDWR);
    }
    thread_.join();
    ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::string name() const {
    return "127.0.0.1:" + std::to_string(port_);
  }
  [[nodiscard]] std::uint64_t requests_seen() const {
    return requests_seen_.load();
  }
  [[nodiscard]] std::uint64_t pings_seen() const {
    return pings_seen_.load();
  }

 private:
  void serve() {
    while (true) {
      const int cfd = ::accept(listen_fd_, nullptr, nullptr);
      if (cfd < 0) return;  // stop() shut the listener down
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
          ::close(cfd);
          return;
        }
        conn_fd_ = cfd;
      }
      handle_conn(cfd);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ::close(cfd);
        conn_fd_ = -1;
        if (stopping_) return;
      }
    }
  }

  void handle_conn(int cfd) {
    net::FrameReader reader;
    std::size_t magic_left = net::kFrameMagic.size();
    char buf[4096];
    while (true) {
      const ssize_t r = ::read(cfd, buf, sizeof(buf));
      if (r <= 0) return;
      const char* data = buf;
      auto len = static_cast<std::size_t>(r);
      if (magic_left > 0) {
        const std::size_t skip = std::min(magic_left, len);
        magic_left -= skip;
        data += skip;
        len -= skip;
      }
      reader.feed(data, len);
      net::Frame frame;
      while (reader.next(frame) == net::FrameReader::Status::kFrame) {
        if (frame.opcode == net::Opcode::kPing &&
            pings_seen_.fetch_add(1) > 0 && pings_ == OnPing::kFirstOnly) {
          continue;  // swallow every ping after the first
        }
        if (frame.opcode == net::Opcode::kPing ||
            frame.opcode == net::Opcode::kStats) {
          std::optional<std::uint64_t> id;
          if (!net::decode_control_id(frame, id)) return;
          ResponseLine resp;
          resp.kind = frame.opcode == net::Opcode::kPing
                          ? ResponseLine::Kind::kPong
                          : ResponseLine::Kind::kStats;
          resp.ok = true;
          resp.id = id;
          if (resp.kind == ResponseLine::Kind::kStats) {
            resp.stats = {{"fake_node", 1}};
          }
          std::string out;
          net::FrameWriter(out).response(resp);
          if (!write_all(cfd, out)) return;
        } else if (frame.opcode == net::Opcode::kRequest) {
          requests_seen_.fetch_add(1);
          if (behavior_ == OnRequest::kCloseAbruptly) return;
          // kSilent: swallow the request, never answer.
        }
      }
    }
  }

  /// MSG_NOSIGNAL: stop() may shut the socket down under a pong being
  /// written, and a plain write() would then kill the whole test binary
  /// with SIGPIPE.
  static bool write_all(int fd, const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w = ::send(fd, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (w <= 0) return false;
      off += static_cast<std::size_t>(w);
    }
    return true;
  }

  const OnRequest behavior_;
  const OnPing pings_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::mutex mutex_;
  int conn_fd_ = -1;
  bool stopping_ = false;
  std::atomic<std::uint64_t> requests_seen_{0};
  std::atomic<std::uint64_t> pings_seen_{0};
};

std::uint64_t stat_value(const ResponseLine& stats, const std::string& key) {
  for (const auto& [k, v] : stats.stats) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "stats line is missing key " << key;
  return 0;
}

/// A generator spec whose spec key the given ring places on `want`.
std::string spec_routed_to(const HashRing& ring, std::size_t want) {
  for (int seed = 1; seed < 200; ++seed) {
    std::string spec = "random:80:" + std::to_string(seed);
    if (*ring.pick(spec_key(spec)) == want) return spec;
  }
  ADD_FAILURE() << "no spec found routing to node " << want;
  return "random:80:1";
}

TEST(ClusterRouter, RoutesOverBothProtocolsAndSharesTheCacheAcrossThem) {
  ServerHarness node_a;
  ServerHarness node_b;
  RouterHarness router({node_a.name(), node_b.name()});
  ASSERT_TRUE(router.wait_nodes_up(2));

  Client text("127.0.0.1", router.port());
  const ResponseLine first = text.request("random:300:1 Liu 1 id=1");
  ASSERT_TRUE(first.ok) << first.message;
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(first.algo, "Liu");
  EXPECT_EQ(first.n, 300);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_GT(first.makespan, 0.0);

  // A DIFFERENT client over the BINARY protocol sends the same spec:
  // the ring lands it on the same node, whose result cache answers.
  Client binary("127.0.0.1", router.port(), net::Protocol::kV3);
  const ResponseLine second = binary.request("random:300:1 Liu 1 id=2");
  ASSERT_TRUE(second.ok) << second.message;
  EXPECT_EQ(second.id, 2u);
  EXPECT_TRUE(second.cache_hit)
      << "same tree via another client+protocol must hit the node's cache";
  EXPECT_EQ(second.makespan, first.makespan) << "bit-identical answers";

  const ResponseLine pong = text.request("ping id=9");
  EXPECT_EQ(pong.kind, ResponseLine::Kind::kPong);
  EXPECT_EQ(pong.id, 9u);
}

TEST(ClusterRouter, PlacementMatchesAnIndependentlyBuiltRing) {
  ServerHarness node_a;
  ServerHarness node_b;
  RouterHarness router({node_a.name(), node_b.name()});
  ASSERT_TRUE(router.wait_nodes_up(2));

  // A second ring over the same names must agree with the router's —
  // that determinism is what makes the spec key a cluster-wide key.
  HashRing ring(router.router().config().vnodes);
  ring.add(node_a.name());
  ring.add(node_b.name());

  Client client("127.0.0.1", router.port());
  std::vector<std::uint64_t> predicted(2, 0);
  for (int seed = 1; seed <= 8; ++seed) {
    const std::string spec = "random:120:" + std::to_string(seed);
    ++predicted[*ring.pick(spec_key(spec))];
    const ResponseLine resp = client.request(spec + " Liu 1");
    ASSERT_TRUE(resp.ok) << resp.message;
    // Routed answers are the node's own: tree= is the fingerprint of the
    // tree the spec resolves to.
    EXPECT_EQ(resp.tree_hash, tree_fingerprint(tree_from_spec(spec))) << spec;
  }
  // perfbench reads nodes_up, node0_routed, node1_routed and retried by
  // name (a missing key would read as 0 there; stat_value fails here).
  const ResponseLine stats = client.request("stats");
  EXPECT_EQ(stat_value(stats, "nodes_up"), 2u);
  EXPECT_EQ(stat_value(stats, "node0_routed"), predicted[0]);
  EXPECT_EQ(stat_value(stats, "node1_routed"), predicted[1]);
  EXPECT_EQ(stat_value(stats, "retried"), 0u);
  EXPECT_EQ(stat_value(stats, "forwarded"), 8u);
  EXPECT_EQ(stat_value(stats, "responses"), 8u);
}

TEST(ClusterRouter, StatsCarryTheUpstreamLatencySummary) {
  // Every answered forward records one upstream round trip, and the
  // `stats` line reports that histogram's summary next to the counters.
  ServerHarness node;
  RouterHarness router({node.name()});
  ASSERT_TRUE(router.wait_nodes_up(1));
  Client client("127.0.0.1", router.port());
  for (int seed = 1; seed <= 6; ++seed) {
    ASSERT_TRUE(client.request("random:80:" + std::to_string(seed) + " Liu 1")
                    .ok);
  }
  const ResponseLine stats = client.request("stats");
  EXPECT_EQ(stat_value(stats, "responses"), 6u);
  EXPECT_EQ(stat_value(stats, "upstream_count"),
            stat_value(stats, "responses"));
  EXPECT_EQ(stat_value(stats, "upstream_window_count"), 6u);
  EXPECT_GT(stat_value(stats, "upstream_p99_us"), 0u);
  EXPECT_GE(stat_value(stats, "upstream_p99_us"),
            stat_value(stats, "upstream_p90_us"));
  EXPECT_GE(stat_value(stats, "upstream_p90_us"),
            stat_value(stats, "upstream_p50_us"));
}

TEST(ClusterRouter, ClusterWideCacheHitAfterWarmingTheNodeDirectly) {
  ServerHarness node_a;
  ServerHarness node_b;
  std::vector<std::string> names{node_a.name(), node_b.name()};
  RouterHarness router(names);
  ASSERT_TRUE(router.wait_nodes_up(2));

  HashRing ring(router.router().config().vnodes);
  for (const auto& n : names) ring.add(n);
  const std::string spec = "synthetic:500:7";
  const std::size_t home = *ring.pick(spec_key(spec));

  // Warm the HOME node by talking to it directly, router not involved.
  {
    Client direct("127.0.0.1", home == 0 ? node_a.port() : node_b.port());
    const ResponseLine warm = direct.request(spec + " Liu 1");
    ASSERT_TRUE(warm.ok) << warm.message;
    EXPECT_FALSE(warm.cache_hit);
    EXPECT_EQ(warm.tree_hash, tree_fingerprint(tree_from_spec(spec)));
  }

  // A fresh client through the router must land on that node and reuse
  // its warm cache: the cluster-wide cache hit the ring exists for.
  Client via_router("127.0.0.1", router.port());
  const ResponseLine hit = via_router.request(spec + " Liu 1");
  ASSERT_TRUE(hit.ok) << hit.message;
  EXPECT_TRUE(hit.cache_hit)
      << "the router must route the spec to the node warmed directly";
  EXPECT_EQ(hit.tree_hash, tree_fingerprint(tree_from_spec(spec)));
}

TEST(ClusterRouter, PingAnswersWhileAHugeSpecIsForwarded) {
  // The router builds no tree: a spec that takes a node a good part of a
  // second to resolve is keyed by its text and forwarded at once, so the
  // router's one loop stays free for everyone else.
  FakeNode fake(FakeNode::OnRequest::kSilent);
  RouterHarness router({fake.name()});
  ASSERT_TRUE(router.wait_nodes_up(1));

  Client heavy("127.0.0.1", router.port());
  heavy.send_line("grid:1414:1 Liu 1 id=1");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Client probe("127.0.0.1", router.port());
  const auto start = std::chrono::steady_clock::now();
  const ResponseLine pong = probe.request("ping");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(pong.kind, ResponseLine::Kind::kPong);
  EXPECT_LT(elapsed.count(), 100) << "the huge spec held the router's loop";
  EXPECT_TRUE(eventually([&] { return fake.requests_seen() == 1; }))
      << "the node never saw the forward";
  // Settle the parked forward (node_unavailable), so the drain ends.
  fake.stop();
  const auto settled = heavy.recv_response();
  ASSERT_TRUE(settled.has_value());
  EXPECT_EQ(settled->code, ErrorCode::kNodeUnavailable);
}

TEST(ClusterRouter, UnansweredProbesDoNotMovePlacement) {
  // Node 0 answers pings but sits on every request, the two `trace
  // start` broadcasts below included; node 1 answers everything. With
  // two probes unanswered on node 0 and none on node 1, a spec whose
  // ring home is node 0 must still go there: the bounded-load walk
  // counts schedule forwards only. (Were the probes load, the bound
  // ceil(1.25 * 3 / 2) = 2 would skip node 0.) No health tick runs
  // after the connect, so no ping or poll is in flight on either node.
  FakeNode fake(FakeNode::OnRequest::kSilent);
  ServerHarness real;
  std::vector<std::string> names{fake.name(), real.name()};
  RouterConfig config;
  config.health_interval_ms = 600000.0;
  RouterHarness router(names, config);
  ASSERT_TRUE(router.wait_nodes_up(2));

  Client client("127.0.0.1", router.port());
  ASSERT_TRUE(client.request("trace start").ok);
  ASSERT_TRUE(client.request("trace start").ok);
  ASSERT_TRUE(eventually([&] { return fake.requests_seen() == 2; }))
      << "node 0 never got both broadcasts";
  EXPECT_TRUE(eventually([&] {
    const ResponseLine stats = client.request("stats");
    return stat_value(stats, "node0_inflight") == 2 &&
           stat_value(stats, "node1_inflight") == 0;
  })) << "node 0 should hold both probes and node 1 none";

  HashRing ring(router.router().config().vnodes);
  for (const auto& n : names) ring.add(n);
  const std::string spec = spec_routed_to(ring, 0);
  client.send_line(spec + " Liu 1 id=1");
  EXPECT_TRUE(eventually([&] { return fake.requests_seen() == 3; }))
      << "the spec left its ring home";
  Client probe("127.0.0.1", router.port());
  const ResponseLine stats = probe.request("stats");
  EXPECT_EQ(stat_value(stats, "node0_routed"), 1u);
  EXPECT_EQ(stat_value(stats, "node1_routed"), 0u);
  EXPECT_TRUE(probe.request("trace stop").ok);
  // Node 0's death hands the parked forward to node 1, which answers.
  fake.stop();
  const auto answered = client.recv_response();
  ASSERT_TRUE(answered.has_value());
  EXPECT_TRUE(answered->ok) << answered->message;
}

TEST(ClusterRouter, MalformedSpecsAreForwardedAndAnsweredByTheirNode) {
  // The router keys any spec text and forwards it; the node's answer,
  // the same typed error a direct client gets, comes back unchanged.
  ServerHarness node;
  RouterHarness router({node.name()});
  ASSERT_TRUE(router.wait_nodes_up(1));
  Client direct("127.0.0.1", node.port());
  Client routed("127.0.0.1", router.port());
  const std::vector<std::string> lines = {"bogus-spec Liu 1 id=1",
                                          "random:-5:1 Liu 1 id=2",
                                          "random:2000000000:1 Liu 1 id=3"};
  for (const std::string& line : lines) {
    const ResponseLine want = direct.request(line);
    const ResponseLine got = routed.request(line);
    ASSERT_FALSE(want.ok) << line;
    EXPECT_EQ(got.code, want.code) << line;
    EXPECT_EQ(got.message, want.message) << line;
    EXPECT_EQ(got.id, want.id) << line;
  }
  const ResponseLine stats = routed.request("stats");
  EXPECT_EQ(stat_value(stats, "forwarded"), lines.size());
  EXPECT_EQ(stat_value(stats, "node0_routed"), lines.size());
}

TEST(ClusterRouter, NodeDeathMidRequestRetriesOnTheAlternate) {
  // Node 0 is a fake that drops the connection the instant a schedule
  // request arrives — a death timed exactly mid-request. Node 1 is
  // real. The forward must be retried there and the client answered ok.
  FakeNode fake(FakeNode::OnRequest::kCloseAbruptly);
  ServerHarness real;
  std::vector<std::string> names{fake.name(), real.name()};
  RouterConfig config;
  config.retries = 1;
  RouterHarness router(names, config);
  ASSERT_TRUE(router.wait_nodes_up(2));

  HashRing ring(router.router().config().vnodes);
  for (const auto& n : names) ring.add(n);
  const std::string spec = spec_routed_to(ring, 0);

  Client client("127.0.0.1", router.port());
  const ResponseLine resp = client.request(spec + " Liu 1 id=1");
  ASSERT_TRUE(resp.ok) << "retry on the alternate must answer: "
                       << resp.message;
  EXPECT_EQ(resp.id, 1u);
  EXPECT_GE(fake.requests_seen(), 1u) << "the fake node saw the forward";

  const ResponseLine stats = client.request("stats");
  EXPECT_GE(stat_value(stats, "retried"), 1u);
  EXPECT_GE(stat_value(stats, "node_failures"), 1u);
}

TEST(ClusterRouter, ExhaustedClusterAnswersTypedNodeUnavailable) {
  // The only node dies mid-request: the retry walk finds no live
  // alternate and the client gets the TYPED error — never a hang.
  FakeNode fake(FakeNode::OnRequest::kCloseAbruptly);
  RouterConfig config;
  config.retries = 1;
  RouterHarness router({fake.name()}, config);
  ASSERT_TRUE(router.wait_nodes_up(1));

  Client client("127.0.0.1", router.port());
  const ResponseLine resp = client.request("random:90:1 Liu 1 id=1");
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.id, 1u);
  EXPECT_EQ(resp.code, ErrorCode::kNodeUnavailable) << resp.message;

  const ResponseLine stats = client.request("stats");
  EXPECT_GE(stat_value(stats, "node_unavailable"), 1u);
}

TEST(ClusterRouter, BackpressureAnswersQueueFullAndCancelReachesTheQueue) {
  // A backend that is alive (answers pings) but never answers work, a
  // window of 1 and a queue of 2: request 1 goes on the wire, 2 and 3
  // queue router-side, 4 and 5 are refused with the typed queue_full.
  // `cancel id=2` pulls a QUEUED forward back; cancelling the one on
  // the wire is refused with the same untagged ack the server uses.
  // Killing the node then settles 1 and 3 as node_unavailable — every
  // accepted request is answered, no matter how badly the node behaves.
  auto fake = std::make_unique<FakeNode>(FakeNode::OnRequest::kSilent);
  RouterConfig config;
  config.retries = 0;
  config.upstream_window = 1;
  config.upstream_queue = 2;
  RouterHarness router({fake->name()}, config);
  ASSERT_TRUE(router.wait_nodes_up(1));

  Client client("127.0.0.1", router.port());
  for (int i = 1; i <= 5; ++i) {
    client.send_line("random:20" + std::to_string(i) + ":1 Liu 1 id=" +
                     std::to_string(i));
  }
  std::map<std::uint64_t, ErrorCode> errors;
  for (int i = 0; i < 2; ++i) {
    const auto resp = client.recv_response();
    ASSERT_TRUE(resp.has_value());
    ASSERT_FALSE(resp->ok);
    ASSERT_TRUE(resp->id.has_value());
    errors[*resp->id] = resp->code;
  }
  EXPECT_EQ(errors.count(4), 1u);
  EXPECT_EQ(errors.count(5), 1u);
  for (const auto& [id, code] : errors) {
    EXPECT_EQ(code, ErrorCode::kQueueFull) << "id " << id;
  }

  client.send_line("cancel id=2");
  const auto cancelled = client.recv_response();
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->id, 2u);
  EXPECT_EQ(cancelled->code, ErrorCode::kCancelled);

  // Cancelling the request already on the wire is refused with an
  // UNTAGGED ack — which keeps submission order, so it queues behind
  // the never-answered request 1 and arrives only once 1 settles.
  client.send_line("cancel id=1");

  // Kill the node: the in-flight forward (1) and the still-queued one
  // (3) settle as typed node_unavailable errors, which also releases
  // the ordered untagged ack. Three answers, nothing hangs.
  fake->stop();
  std::map<std::uint64_t, ErrorCode> settled;
  bool saw_refused_ack = false;
  for (int i = 0; i < 3; ++i) {
    const auto resp = client.recv_response();
    ASSERT_TRUE(resp.has_value());
    ASSERT_FALSE(resp->ok);
    if (resp->id.has_value()) {
      settled[*resp->id] = resp->code;
    } else {
      saw_refused_ack = true;
      EXPECT_NE(resp->message.find("already forwarded"), std::string::npos)
          << resp->message;
    }
  }
  EXPECT_TRUE(saw_refused_ack)
      << "a cancel that cannot be honored acks untagged";
  EXPECT_EQ(settled.count(1), 1u);
  EXPECT_EQ(settled.count(3), 1u);
  for (const auto& [id, code] : settled) {
    EXPECT_EQ(code, ErrorCode::kNodeUnavailable) << "id " << id;
  }
}

TEST(ClusterRouter, BackpressureWindowIgnoresAnUnansweredPing) {
  // The window bounds schedule forwards only. The node answers its
  // first ping and sits on the second (the long ping timeout keeps it
  // up), so a health ping is in flight when the requests arrive. With a
  // window of 1, request 1 must still go on the wire while request 2
  // waits router-side.
  auto fake = std::make_unique<FakeNode>(FakeNode::OnRequest::kSilent,
                                         FakeNode::OnPing::kFirstOnly);
  RouterConfig config;
  config.retries = 0;
  config.upstream_window = 1;
  config.ping_timeout_ms = 60000.0;
  RouterHarness router({fake->name()}, config);
  ASSERT_TRUE(router.wait_nodes_up(1));
  ASSERT_TRUE(eventually([&] { return fake->pings_seen() >= 2; }))
      << "the router never sent the ping the node holds";

  Client client("127.0.0.1", router.port());
  client.send_line("random:201:1 Liu 1 id=1");
  client.send_line("random:202:1 Liu 1 id=2");
  EXPECT_TRUE(eventually([&] { return fake->requests_seen() >= 1; }))
      << "an unanswered ping held request 1 back";
  Client probe("127.0.0.1", router.port());
  EXPECT_TRUE(eventually([&] {
    return stat_value(probe.request("stats"), "node0_queued") == 1;
  })) << "request 2 waits router-side";
  EXPECT_EQ(fake->requests_seen(), 1u)
      << "the window still bounds schedule forwards";

  // Kill the node: both accepted requests settle as node_unavailable.
  fake->stop();
  for (int i = 0; i < 2; ++i) {
    const auto resp = client.recv_response();
    ASSERT_TRUE(resp.has_value());
    EXPECT_FALSE(resp->ok);
    EXPECT_EQ(resp->code, ErrorCode::kNodeUnavailable);
  }
}

TEST(ClusterRouter, DrainTimeoutBoundsAStuckShutdown) {
  // A request is parked on a node that will never answer; without the
  // timeout, stop() would wait for it forever.
  FakeNode fake(FakeNode::OnRequest::kSilent);
  RouterConfig config;
  config.frontend.drain_timeout_ms = 150.0;
  auto router = std::make_unique<RouterHarness>(
      std::vector<std::string>{fake.name()}, config);
  ASSERT_TRUE(router->wait_nodes_up(1));

  Client client("127.0.0.1", router->port());
  client.send_line("random:77:1 Liu 1 id=1");
  // Wait until the forward is actually on the fake node's wire.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fake.requests_seen() == 0 &&
         std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(fake.requests_seen(), 1u);

  const auto start = std::chrono::steady_clock::now();
  router->stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 3000)
      << "drain must be bounded by --drain-timeout-ms";
}

TEST(ClusterRouter, RejectsDuplicateNodesAndEmptyNodeLists) {
  RouterConfig dup;
  dup.nodes = {"127.0.0.1:3714", "127.0.0.1:3714"};
  EXPECT_THROW(Router{dup}, std::invalid_argument);
  RouterConfig empty;
  EXPECT_THROW(Router{empty}, std::invalid_argument);
  RouterConfig malformed;
  malformed.nodes = {"127.0.0.1"};
  EXPECT_THROW(Router{malformed}, std::invalid_argument);
}

TEST(ClusterRouter, NodeFramesAreNotBoundByTheClientFrameLimit) {
  // A node's `stats` reply is larger than 2 KiB, the frame bound this
  // router sets for its clients. Node answers are read under the
  // protocol default instead, so polling the node on every health tick
  // neither fails it nor loses the backend_ aggregate.
  ServerHarness node;
  RouterConfig config;
  config.frontend.session.max_frame = 2048;
  config.stats_poll_ticks = 1;
  RouterHarness router({node.name()}, config);  // 10 ms health ticks
  ASSERT_TRUE(router.wait_nodes_up(1));
  // The connect sends one ping, and every tick one poll and at most one
  // ping, so 7 control frames at the node mean at least 3 polls.
  Client direct("127.0.0.1", node.port());
  ASSERT_TRUE(eventually([&] {
    return stat_value(direct.request("stats"), "frames_in") >= 7;
  })) << "the router stopped polling its node";
  Client probe("127.0.0.1", router.port());
  ResponseLine stats;
  EXPECT_TRUE(eventually([&] {
    stats = probe.request("stats");
    return std::any_of(stats.stats.begin(), stats.stats.end(),
                       [](const auto& pair) {
                         return pair.first.rfind("backend_", 0) == 0;
                       });
  })) << "no stats poll of the node was ever answered";
  EXPECT_EQ(stat_value(stats, "node_failures"), 0u);
  EXPECT_EQ(stat_value(stats, "node0_last_error_code"), 0u);
}

// ---------------------------------------------------------------------------
// Cluster-wide tracing and event logging: the merged dump pulls every
// live backend's ring, per-node failure counters surface in stats, and
// node deaths land in the structured event log.
//
// In-process caveat: router and backends share Tracer::global(), so a
// backend's pull can return spans the router also snapshotted. These
// tests therefore assert the MERGE MECHANICS (per-process pids,
// process_name metadata, nodes_merged) — span exclusivity is a
// cross-process property the shell e2e script covers.
// ---------------------------------------------------------------------------

TEST(ClusterTrace, MergedDumpCoversRouterAndEveryNode) {
  ServerHarness node_a;
  ServerHarness node_b;
  const ScopedTempDir dir("trace");
  ASSERT_FALSE(dir.path().empty());
  RouterConfig config;
  config.frontend.session.trace_dir = dir.path();
  RouterHarness router({node_a.name(), node_b.name()}, config);
  ASSERT_TRUE(router.wait_nodes_up(2));

  Client client("127.0.0.1", router.port());
  const ResponseLine start = client.request("trace start id=1");
  ASSERT_TRUE(start.ok) << start.message;
  for (int seed = 1; seed <= 6; ++seed) {
    const ResponseLine resp =
        client.request("random:100:" + std::to_string(seed) + " Liu 1 id=" +
                       std::to_string(10 + seed));
    ASSERT_TRUE(resp.ok) << resp.message;
  }

  const ResponseLine dump = client.request("trace dump=cluster.json id=9");
  ASSERT_TRUE(dump.ok) << dump.message;
  EXPECT_EQ(dump.id, 9u);
  EXPECT_EQ(stat_value(dump, "nodes_merged"), 2u)
      << "both live backends must contribute their rings";
  EXPECT_EQ(stat_value(dump, "pull_failures"), 0u);
  EXPECT_GT(stat_value(dump, "spans"), 0u);

  // `trace status` names the per-node pull-failure counters.
  const ResponseLine status = client.request("trace status");
  EXPECT_EQ(stat_value(status, "node0_pull_failures"), 0u);
  EXPECT_EQ(stat_value(status, "node1_pull_failures"), 0u);
  EXPECT_TRUE(client.request("trace stop").ok);

  std::ifstream in(dir.path() + "/cluster.json");
  ASSERT_TRUE(in.good()) << "the merged dump file must exist under trace_dir";
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"router\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node " + node_a.name() + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node " + node_b.name() + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos) << "router = pid 1";
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("router/upstream"), std::string::npos)
      << "the router's own upstream round-trip spans are in the dump";
}

TEST(ClusterTrace, MergedDumpWithoutTraceDirIsRefused) {
  // No trace_dir at all: the dump must be refused up front, exactly
  // like the single-node server refuses server-side file writes.
  ServerHarness node;
  RouterHarness router({node.name()});
  ASSERT_TRUE(router.wait_nodes_up(1));
  Client client("127.0.0.1", router.port());
  const ResponseLine refused = client.request("trace dump=x.json id=1");
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, ErrorCode::kBadRequest);
}

TEST(ClusterRouter, PerNodeFailureCountersAndEventLogRecordADeath) {
  // Node 0 dies mid-request (FakeNode closes on the first schedule
  // forward); node 1 is real. The retry answers the client, and the
  // death must surface three ways: per-node stats counters, labeled
  // Prometheus series (same samples), and the structured event log.
  FakeNode fake(FakeNode::OnRequest::kCloseAbruptly);
  ServerHarness real;
  std::vector<std::string> names{fake.name(), real.name()};
  const ScopedTempDir dir("events");
  ASSERT_FALSE(dir.path().empty());
  const std::string log_path = dir.path() + "/events.jsonl";
  RouterConfig config;
  config.retries = 1;
  config.frontend.log_json = log_path;
  RouterHarness router(names, config);
  ASSERT_TRUE(router.wait_nodes_up(2));

  HashRing ring(router.router().config().vnodes);
  for (const auto& n : names) ring.add(n);
  const std::string spec = spec_routed_to(ring, 0);

  Client client("127.0.0.1", router.port());
  const ResponseLine resp = client.request(spec + " Liu 1 id=1");
  ASSERT_TRUE(resp.ok) << resp.message;

  const ResponseLine stats = client.request("stats");
  EXPECT_GE(stat_value(stats, "node0_disconnects"), 1u);
  EXPECT_GE(stat_value(stats, "node0_retries"), 1u);
  EXPECT_NE(stat_value(stats, "node0_last_error_code"), 0u)
      << "the death must leave a typed failure code behind";
  EXPECT_EQ(stat_value(stats, "node1_disconnects"), 0u)
      << "the healthy node's counters stay clean";

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good()) << "--log-json must have created the sink";
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string events = ss.str();
  EXPECT_NE(events.find("\"event\":\"node_down\""), std::string::npos);
  EXPECT_NE(events.find("\"event\":\"retry\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Satellite coverage: spec byte budgets and the server's drain timeout.
// ---------------------------------------------------------------------------

/// Writes `bytes` junk bytes to `file` under a fresh temp dir.
ScopedTempDir make_tree_dir_with(const std::string& file, std::size_t bytes) {
  ScopedTempDir dir("cluster");
  EXPECT_FALSE(dir.path().empty());
  std::ofstream out(dir.path() + "/" + file, std::ios::binary);
  out << std::string(bytes, 'x');
  return dir;
}

TEST(MaxSpecBytes, ServerRejectsOversizedTreeFilesBeforeReading) {
  // The byte budget is checked against the on-disk size BEFORE the
  // read, so even an unparseable file works as the oversized probe.
  const ScopedTempDir dir = make_tree_dir_with("big.tree", 64);
  ServerConfig config;
  config.spec.allow_file = true;
  config.spec.file_dir = dir.path();
  config.spec.max_file_bytes = 16;
  ServerHarness server(config);
  Client client("127.0.0.1", server.port());
  const ResponseLine resp = client.request("file:big.tree Liu 1 id=1");
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, ErrorCode::kBadRequest);
  EXPECT_NE(resp.message.find("byte"), std::string::npos) << resp.message;
}

TEST(MaxSpecBytes, NodeRejectsOversizedTreeFilesSentThroughTheRouter) {
  // The router never opens a spec: it forwards file:big.tree as text,
  // and the node's byte budget answers with the node's typed error,
  // which the router delivers unchanged.
  const ScopedTempDir dir = make_tree_dir_with("big.tree", 64);
  ServerConfig node_config;
  node_config.spec.allow_file = true;
  node_config.spec.file_dir = dir.path();
  node_config.spec.max_file_bytes = 16;
  ServerHarness node(node_config);
  RouterHarness router({node.name()});
  ASSERT_TRUE(router.wait_nodes_up(1));
  Client client("127.0.0.1", router.port());
  const ResponseLine resp = client.request("file:big.tree Liu 1 id=1");
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.id, 1u);
  EXPECT_EQ(resp.code, ErrorCode::kBadRequest);
  EXPECT_NE(resp.message.find("16-byte limit"), std::string::npos)
      << resp.message;
  const ResponseLine stats = client.request("stats");
  EXPECT_EQ(stat_value(stats, "forwarded"), 1u)
      << "the node, not the router, judges the spec";
}

TEST(ScheduleServerDrain, DrainTimeoutBoundsClientsThatNeverRead) {
  ServerConfig config;
  config.frontend.drain_timeout_ms = 150.0;
  config.frontend.session.max_wbuf = 64 * 1024;
  auto server = std::make_unique<ServerHarness>(config);
  Client client("127.0.0.1", server->port());
  // Shrink the client's receive window, then pile up answers it never
  // reads: stats lines are kilobytes each, so the server's write buffer
  // cannot flush and an unbounded drain would wait forever.
  const int rcvbuf = 4096;
  ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  for (int i = 0; i < 400; ++i) {
    client.send_line("stats id=" + std::to_string(i + 1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  server->stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 3000)
      << "drain must be bounded by --drain-timeout-ms";
}

// ---------------------------------------------------------------------------
// The router's stats vocabulary, pinned like the server's in test_net:
// its `stats` keys, its /metrics series, and the keys that report a
// Prometheus sample.
// ---------------------------------------------------------------------------

/// The router's `stats` keys over one node, after its first stats poll
/// of that node (the backend_ sums appear then).
const std::vector<std::string> kRouterStatsKeys = {
    "accepted", "backend_accepted", "backend_batch_requests",
    "backend_cache_bytes", "backend_cache_entries", "backend_cache_evictions",
    "backend_cache_hits", "backend_cache_misses", "backend_conns",
    "backend_e2e_count", "backend_e2e_p50_us", "backend_e2e_p90_us",
    "backend_e2e_p99_us", "backend_e2e_window_count", "backend_frames_bad",
    "backend_frames_in", "backend_lines", "backend_net_e2e_count",
    "backend_net_e2e_p50_us", "backend_net_e2e_p90_us",
    "backend_net_e2e_p99_us", "backend_net_e2e_window_count",
    "backend_outstanding", "backend_parse_errors", "backend_pool_executed",
    "backend_pool_pending", "backend_pool_submitted", "backend_pool_threads",
    "backend_queue_admitted", "backend_queue_admitted_batch",
    "backend_queue_admitted_bulk", "backend_queue_admitted_interactive",
    "backend_queue_aged_batch", "backend_queue_aged_bulk",
    "backend_queue_aged_interactive", "backend_queue_cancelled",
    "backend_queue_cancelled_batch", "backend_queue_cancelled_bulk",
    "backend_queue_cancelled_interactive", "backend_queue_completed",
    "backend_queue_completed_batch", "backend_queue_completed_bulk",
    "backend_queue_completed_interactive", "backend_queue_expired",
    "backend_queue_expired_batch", "backend_queue_expired_bulk",
    "backend_queue_expired_interactive", "backend_queue_pending",
    "backend_queue_pending_batch", "backend_queue_pending_bulk",
    "backend_queue_pending_interactive", "backend_queue_rejected",
    "backend_queue_rejected_batch", "backend_queue_rejected_bulk",
    "backend_queue_rejected_interactive", "backend_queue_wait_p99_us_batch",
    "backend_queue_wait_p99_us_bulk", "backend_queue_wait_p99_us_interactive",
    "backend_rejected_conns", "backend_stage_compute_count",
    "backend_stage_compute_p50_us", "backend_stage_compute_p90_us",
    "backend_stage_compute_p99_us", "backend_stage_compute_window_count",
    "backend_stage_dispatch_count", "backend_stage_dispatch_p50_us",
    "backend_stage_dispatch_p90_us", "backend_stage_dispatch_p99_us",
    "backend_stage_dispatch_window_count", "backend_stage_queue_wait_count",
    "backend_stage_queue_wait_p50_us", "backend_stage_queue_wait_p90_us",
    "backend_stage_queue_wait_p99_us", "backend_stage_queue_wait_window_count",
    "backend_stage_write_stall_count", "backend_stage_write_stall_p50_us",
    "backend_stage_write_stall_p90_us", "backend_stage_write_stall_p99_us",
    "backend_stage_write_stall_window_count", "backend_store_bytes",
    "backend_store_rejected", "backend_store_trees", "backend_submitted",
    "backend_v3_conns", "batch_requests", "cancelled", "connects", "conns",
    "forwarded", "frames_bad", "frames_in", "lines", "node0_disconnects",
    "node0_inflight", "node0_last_error_code", "node0_queued", "node0_retries",
    "node0_routed", "node0_up", "node_failures", "node_unavailable", "nodes",
    "nodes_up", "orphan_responses", "parse_errors", "queue_full",
    "rejected_conns", "responses", "retried", "upstream_count",
    "upstream_p50_us", "upstream_p90_us", "upstream_p99_us",
    "upstream_window_count", "v3_conns",
};

/// Its /metrics series, the node's address spelled NODE.
const std::vector<std::string> kRouterSeries = {
    "treesched_router_accepted_total", "treesched_router_connections",
    "treesched_router_forwarded_total",
    "treesched_router_node_disconnects_total{node=\"NODE\"}",
    "treesched_router_node_failures_total",
    "treesched_router_node_last_error_code{node=\"NODE\"}",
    "treesched_router_node_retries_total{node=\"NODE\"}",
    "treesched_router_node_routed_total{node=\"NODE\"}",
    "treesched_router_node_unavailable_total", "treesched_router_nodes_up",
    "treesched_router_parse_errors_total", "treesched_router_queue_full_total",
    "treesched_router_requests_total", "treesched_router_responses_total",
    "treesched_router_retried_total",
    "treesched_router_slo_error_ratio{class=\"all\"}",
    "treesched_router_slo_error_ratio{class=\"batch\"}",
    "treesched_router_slo_error_ratio{class=\"bulk\"}",
    "treesched_router_slo_error_ratio{class=\"interactive\"}",
    "treesched_router_upstream_seconds_count",
    "treesched_router_upstream_seconds_count{class=\"batch\"}",
    "treesched_router_upstream_seconds_count{class=\"bulk\"}",
    "treesched_router_upstream_seconds_count{class=\"interactive\"}",
};

/// Every router stats key that has a Prometheus twin, with the twin
/// (`node` labels name the router's only node).
std::vector<testing::Twin> router_twins(const std::string& node) {
  const std::string label = "{node=\"" + node + "\"}";
  return {
      {"accepted", "treesched_router_accepted_total"},
      {"lines", "treesched_router_requests_total"},
      {"forwarded", "treesched_router_forwarded_total"},
      {"responses", "treesched_router_responses_total"},
      {"retried", "treesched_router_retried_total"},
      {"node_unavailable", "treesched_router_node_unavailable_total"},
      {"queue_full", "treesched_router_queue_full_total"},
      {"node_failures", "treesched_router_node_failures_total"},
      {"parse_errors", "treesched_router_parse_errors_total"},
      {"conns", "treesched_router_connections"},
      {"nodes_up", "treesched_router_nodes_up"},
      {"node0_routed", "treesched_router_node_routed_total" + label},
      {"node0_disconnects", "treesched_router_node_disconnects_total" + label},
      {"node0_retries", "treesched_router_node_retries_total" + label},
      {"node0_last_error_code",
       "treesched_router_node_last_error_code" + label},
      {"upstream_count", "treesched_router_upstream_seconds_count"},
  };
}

TEST(StatsVocabulary, RouterViewsMatchTheGoldensAndAgree) {
  ServerHarness node;
  RouterConfig config;
  config.frontend.metrics_port = 0;
  RouterHarness router({node.name()}, config);
  ASSERT_TRUE(router.wait_nodes_up(1));
  Client probe("127.0.0.1", router.port());
  ASSERT_TRUE(probe.request("random:200:1 Liu 1").ok);
  ASSERT_TRUE(probe.request("random:200:1 Liu 1").cache_hit);
  std::vector<std::string> keys;
  ASSERT_TRUE(eventually([&] {
    keys = testing::stats_keys(probe.request("stats"));
    return std::any_of(keys.begin(), keys.end(), [](const std::string& key) {
      return key.rfind("backend_", 0) == 0;
    });
  })) << "the router never polled its node's stats";
  testing::expect_same_set(keys, kRouterStatsKeys);
  std::vector<std::string> series = testing::exposition_series(
      testing::scrape_metrics(router.router().metrics_port()));
  for (std::string& s : series) {
    const std::size_t at = s.find(node.name());
    if (at != std::string::npos) s.replace(at, node.name().size(), "NODE");
  }
  testing::expect_same_set(series, kRouterSeries);
  testing::expect_twins_agree(probe, router.router().metrics_port(),
                              router_twins(node.name()));
}

}  // namespace
}  // namespace treesched
