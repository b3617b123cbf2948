// Cluster front-end for the scheduling service: a router process
// (src/cluster/) that accepts the same text-v2 / binary-v3 protocols as
// schedule_server and shards every request across N backend nodes by a
// hash of its tree spec's text over a bounded-load consistent-hash ring
// — identical specs always reach the same node and its warm result
// cache, cluster-wide. The router builds no tree: each node resolves and
// bounds the specs it is sent, so a bad spec gets the node's own typed
// error.
//
//   $ ./schedule_server --port 3714 &          # node A
//   $ ./schedule_server --port 3715 &          # node B
//   $ ./schedule_router --port 3713 --nodes 127.0.0.1:3714,127.0.0.1:3715 &
//   listening on 127.0.0.1:3713
//   $ printf 'random:500:1 ParSubtrees 8 id=1\n' | nc 127.0.0.1 3713
//   ok id=1 tree=... makespan=... priority=batch
//
// The router's own flags: --nodes host:port,... names the backends
// (required). --vnodes and --load-factor shape the ring;
// --upstream-window / --upstream-queue / --upstream-wbuf-kb bound each
// backend pipe; --retries is the retry-on-alternate budget after a node
// death. --health-interval-ms / --ping-timeout-ms / --backoff-ms drive
// failure detection and reconnects.
//
// Every other flag is one schedule_server shares, read by the same
// function (net::parse_frontend_flags) with the same defaults: --port
// (0 = ephemeral, printed on stdout, for scripts), --bind, the
// client-side limits (--max-conns, --max-pending, --max-wbuf-kb,
// --max-frame-kb), --metrics-port (GET /metrics, 0 = ephemeral,
// printed), --trace-dir (allows `trace dump=` — on the router this is
// the MERGED cluster dump: its own spans plus every live node's, one
// pid each), --log-json PATH (node deaths, reconnects, retries, drains;
// "-" = stdout) and --drain-timeout-ms. These bound clients only:
// frames from the nodes are bounded by the protocol default, not by
// --max-frame-kb. The spec flags (--tree-dir, --max-spec-nodes,
// --max-spec-bytes) are the nodes' alone; the router refuses them as
// unknown. Every integer flag is range-checked: an out-of-range value
// exits 1 naming the flag and its range.
//
// Failure semantics: a dead node's unanswered requests are retried on
// the next ring alternate (they are deterministic — re-execution is
// safe) or answered with the typed node_unavailable error. Clients
// always get an answer; SIGTERM/SIGINT drain gracefully.

#include <cstdint>
#include <iostream>
#include <limits>

#include "cluster/router.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace treesched;
  try {
    CliArgs args(argc, argv);
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
    cluster::RouterConfig config;
    config.frontend = net::parse_frontend_flags(args);
    config.nodes = split_csv(args.get("nodes", ""));
    config.vnodes = static_cast<int>(args.get_int("vnodes", 64, 1, kMaxInt));
    config.load_factor = args.get_double("load-factor", 1.25);
    config.upstream_window = static_cast<std::size_t>(
        args.get_int("upstream-window", 128, 0, kMax));
    config.upstream_queue = static_cast<std::size_t>(
        args.get_int("upstream-queue", 1024, 0, kMax));
    // In KiB, bounded so the shift cannot overflow.
    config.upstream_max_wbuf =
        static_cast<std::size_t>(
            args.get_int("upstream-wbuf-kb", 1024, 0, kMax >> 10))
        << 10;
    config.retries = static_cast<int>(args.get_int("retries", 1, 0, kMaxInt));
    config.health_interval_ms = args.get_double("health-interval-ms", 250.0);
    config.ping_timeout_ms = args.get_double("ping-timeout-ms", 2000.0);
    config.reconnect_backoff_ms = args.get_double("backoff-ms", 500.0);
    args.reject_unknown();
    if (config.nodes.empty()) {
      throw std::invalid_argument(
          "--nodes host:port[,host:port...] is required");
    }

    // Before the loop starts, so only the router's signalfd sees them.
    net::block_drain_signals();

    cluster::Router router(std::move(config));
    // Machine-read by scripts (the e2e test binds port 0): keep the
    // format stable and flushed before serving starts.
    std::cout << "listening on " << router.address() << std::endl;
    if (router.metrics_port() != 0) {
      std::cout << "metrics on 127.0.0.1:" << router.metrics_port()
                << std::endl;
    }
    router.run();
    std::cerr << "drained: all accepted requests answered\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
