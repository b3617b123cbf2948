// Networked front-end for the scheduling service: an epoll-driven
// server (src/net/) speaking text protocol v2 and binary protocol v3
// (net/frame.hpp), negotiated per connection by its first bytes. The
// stdin front-end (examples/schedule_service) runs this same server
// with itself as its one client.
//
//   $ ./schedule_server --port 3713 &
//   listening on 127.0.0.1:3713
//   $ printf 'random:500:1 ParSubtrees 8 id=1\nping\n' | nc 127.0.0.1 3713
//   ok id=1 tree=... makespan=... priority=batch
//   pong
//
// Flags shared with schedule_router (net::parse_frontend_flags reads
// them for both binaries): --port 0 picks an ephemeral port (printed on
// stdout, for scripts); --bind sets the TCP address (default
// 127.0.0.1). --max-conns bounds accepted sockets; --max-pending bounds
// unsettled requests per connection (excess answers the typed
// queue_full error; 0 is refused at startup); --max-wbuf-kb bounds a
// connection's write buffer; --max-frame-kb bounds one v3 frame.
// --metrics-port N serves `GET /metrics` (Prometheus text exposition)
// on 127.0.0.1:N, riding the server's own I/O thread; 0 picks an
// ephemeral port (printed as "metrics on ..."). --trace-dir DIR allows
// the `trace dump=<file>` verb to write Chrome trace JSON into DIR
// (relative names only); without it dumps are refused — a network
// client must not name server-side files. --log-json PATH appends
// structured JSON-lines events (drains, slow requests, queue
// rejections) to PATH; "-" = stdout. --drain-timeout-ms T caps the
// graceful drain: past T, clients that never read their last answers
// are closed instead of holding the process up (0 = wait forever).
//
// The server's own flags: --unix /path.sock serves on a unix-domain
// socket instead of TCP (same protocols, no TCP stack — what the
// bench's UDS experiment measures); --slow-ms T logs the full stage
// breakdown of any request slower than T ms to stderr; --cache-mb /
// --store-mb budget the result cache and the instance store;
// --validate re-validates every computed schedule. Spec hygiene is the
// server's alone (a router forwards specs as text): --tree-dir DIR
// allows `file:` tree specs to read trees from DIR (relative names
// only); without it file: specs are refused — a network client must not
// choose what the server opens. --max-spec-nodes N bounds generator
// specs (random:/synthetic:/grid:) before allocation (default 2000000;
// 0 = unlimited, trusted networks only); --max-spec-bytes N bounds the
// on-disk size of a file: spec before it is read (default 16 MiB; 0 =
// unlimited).
//
// Every integer flag is range-checked: a port past 65535, a negative
// size or a KiB/MiB count whose shift would overflow exits 1 naming
// the flag and its range.
//
// SIGTERM/SIGINT drain gracefully: the listener closes, every accepted
// request is answered or cancelled, buffers flush, then the process
// exits 0 — kill -TERM is the production stop.

#include <cstdint>
#include <iostream>
#include <limits>

#include "net/server.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace treesched;
  try {
    CliArgs args(argc, argv);
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    // Sizes in MiB, bounded so the shift cannot overflow.
    const auto mib = [&](const char* flag, std::int64_t fallback) {
      return static_cast<std::size_t>(args.get_int(flag, fallback, 0,
                                                   kMax >> 20))
             << 20;
    };
    net::ServerConfig server_config;
    server_config.frontend = net::parse_frontend_flags(args);
    server_config.frontend.listen.unix_path = args.get("unix", "");
    server_config.slow_ms = args.get_double("slow-ms", 0.0);
    TreeSpecOptions& spec = server_config.spec;
    spec.file_dir = args.get("tree-dir", "");
    spec.allow_file = !spec.file_dir.empty();
    spec.max_nodes = static_cast<std::uint64_t>(args.get_int(
        "max-spec-nodes", static_cast<std::int64_t>(spec.max_nodes), 0, kMax));
    spec.max_file_bytes = static_cast<std::uint64_t>(
        args.get_int("max-spec-bytes",
                     static_cast<std::int64_t>(spec.max_file_bytes), 0, kMax));
    ServiceConfig service_config;
    service_config.cache_bytes = mib("cache-mb", 256);
    service_config.validate = args.get_bool("validate", false);
    service_config.store.max_bytes = mib("store-mb", 0);
    args.reject_unknown();

    // Before ANY thread exists: the service's first submit spawns the
    // shared pool, which inherits the mask.
    net::block_drain_signals();

    SchedulingService service(service_config);
    net::Server server(service, server_config);
    // Machine-read by scripts (the e2e test binds port 0): keep the
    // format stable and flushed before serving starts.
    std::cout << "listening on " << server.address() << std::endl;
    if (server.metrics_port() != 0) {
      std::cout << "metrics on 127.0.0.1:" << server.metrics_port()
                << std::endl;
    }
    server.run();
    std::cerr << "drained: all accepted requests answered or cancelled\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
