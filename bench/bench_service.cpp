// Throughput and latency of the scheduling service.
//
// Experiment 1 (throughput): the same K = trees x algos x procs distinct
// requests cycled --repeat times, answered once with the result cache
// disabled (every request recomputes — the pre-service cost model) and
// once with it enabled. Reports requests/sec for both paths and the
// speedup; the PR 2 acceptance bar is >= 10x on the cached path.
//
// Experiment 2 (mixed-priority latency): a stream of interactive probes
// submitted against a service saturated with heavy Bulk work, twice —
// once with the probes at priority=interactive (the admission queue lets
// them overtake the backlog) and once at priority=bulk (plain FIFO
// within the class: each probe waits out the whole backlog ahead of it).
// Reports probe p50/p99 latency for both; the PR 3 acceptance bar is a
// measurably lower interactive p99. A third wave of deadline-tagged
// requests is submitted behind the backlog with sub-millisecond budgets:
// all of them must expire with the typed error and none may ever reach a
// scheduler (cache-miss accounting proves it).
//
// Experiment 3 (ticket overhead): the same cache-hot request answered
// --ticket-ops times through submit()+Ticket::wait(), so the cost of the
// v2 submission surface (queue admission + ticket settle) is on the
// perf record.
//
// Experiment 4 (loopback server, v2 vs v3): a real schedule_server
// (src/net/, an epoll front-end on 127.0.0.1 port 0 — plus unix-domain
// runs) driven by N concurrent client threads through net::Client, in
// both protocols and several batch depths. batch=1 is the classic
// closed loop of synchronous requests; batch=k pipelines k requests per
// submission (one newline-joined write in text mode, ONE kBatch frame
// in v3) and then drains the k tagged answers. Cached runs warm the
// 32-key spec pool first, so the numbers price the transport — framing,
// epoll, ticket hand-off, kernel loopback — not the schedulers; the
// uncached batch=1 runs price the whole compute path. The headline
// ratio, v3 batch=16 over text v2 batch=1 (both cache-hot, same run),
// carries the PR 6 acceptance bar: >= 3x.
//
// Experiment 6 (router overhead): the experiment-4 cache-hot closed
// loop driven once directly at a backend schedule server and once
// through a cluster::Router (src/cluster/) fronting that same node, in
// the same process and run. The routed/direct rps ratio prices the
// router hop alone — the spec key, the ring walk, the upstream pipe,
// one extra loopback round trip — and carries the PR 9 acceptance
// bar: >= 0.7x, gated in CI by check_bench_trend.py --min-router-ratio.
//
// Experiment 7 (tracing overhead): the experiment-4 cache-hot v3
// batch=1 closed loop run once with the process tracer disabled and
// once with it enabled — the enabled run records every net and compute
// span into the lock-free rings, exactly what `trace start` turns on in
// production. The fractional rps loss prices the span recorder's hot
// path and carries this PR's acceptance bar: <= 5%, gated in CI by
// check_bench_trend.py --max-trace-overhead.
//
//   $ ./bench_service
//   $ ./bench_service --trees 8 --n 4000 --repeat 50 --json service.json
//   $ ./bench_service --probes 50 --bulk-per-probe 4 --bulk-n 4000
//   $ ./bench_service --server-clients 8 --server-requests 512
//
// --probes 0 skips experiment 2; --ticket-ops 0 skips experiment 3;
// --server-clients 0 skips experiments 4, 6, and 7.
// --json writes the numbers machine-readably (merged into BENCH_PR2.json
// by the perf pipeline alongside bench_perf's per-algorithm ns/op).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cluster/router.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"
#include "service/service.hpp"
#include "campaign/dataset.hpp"
#include "trees/generators.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace treesched;

double run_requests(SchedulingService& service,
                    const std::vector<ScheduleRequest>& reqs,
                    std::size_t passes) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const auto responses = service.schedule_batch(reqs);
    for (const ScheduleResponse& resp : responses) {
      if (!resp.ok()) {
        throw std::runtime_error("bench_service request failed: " +
                                 resp.error->message);
      }
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  return static_cast<double>(reqs.size() * passes) / elapsed.count();
}

struct MixedResult {
  double probe_p50_ms = 0.0;
  double probe_p99_ms = 0.0;
};

/// One mixed run: before each probe, top up the Bulk backlog with
/// `bulk_per_probe` heavy requests, then submit the probe at
/// `probe_priority` and block on its future — the interactive client's
/// view. The cache is disabled so every Bulk request costs real compute
/// and the backlog never collapses into hits.
MixedResult run_mixed(Priority probe_priority, std::size_t probes,
                      std::size_t bulk_per_probe, NodeId bulk_n,
                      NodeId probe_n) {
  ServiceConfig config;
  config.cache_bytes = 0;
  SchedulingService service(config);
  Rng rng(0x3713ed);
  const TreeHandle bulk_tree =
      service.intern(synthetic_assembly_tree(bulk_n, 2.0, rng));
  const TreeHandle probe_tree =
      service.intern(synthetic_assembly_tree(probe_n, 2.0, rng));

  std::vector<Ticket> bulk_tickets;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(probes);
  int bulk_p = 2;
  for (std::size_t i = 0; i < probes; ++i) {
    for (std::size_t b = 0; b < bulk_per_probe; ++b) {
      ScheduleRequest req;
      req.tree = bulk_tree;
      req.algo = "ParDeepestFirst";
      req.p = 2 + (bulk_p++ % 31);
      req.priority = Priority::kBulk;
      bulk_tickets.push_back(service.submit(std::move(req)));
    }
    ScheduleRequest probe;
    probe.tree = probe_tree;
    probe.algo = "ParInnerFirst";
    probe.p = 4;
    probe.priority = probe_priority;
    const auto t0 = std::chrono::steady_clock::now();
    const ServiceResult result = service.submit(std::move(probe)).wait();
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - t0;
    if (!result.ok()) {
      throw std::runtime_error("mixed probe failed: " +
                               result.error().message);
    }
    latencies_ms.push_back(elapsed.count());
  }
  for (Ticket& t : bulk_tickets) (void)t.wait();

  MixedResult result;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.probe_p50_ms = quantile_sorted(latencies_ms, 0.50);
  result.probe_p99_ms = quantile_sorted(latencies_ms, 0.99);
  return result;
}

/// Expiry wave: a Bulk backlog, then deadline-tagged Bulk requests with a
/// sub-millisecond budget behind it. Returns (expired, computed-for-them).
std::pair<std::uint64_t, std::uint64_t> run_expiry(std::size_t doomed,
                                                   NodeId bulk_n) {
  SchedulingService service;  // cache ON: distinct keys, misses == computes
  Rng rng(0xdead11e);
  const TreeHandle tree =
      service.intern(synthetic_assembly_tree(bulk_n, 2.0, rng));
  // Pin every pool worker with queued work to spare, or an idle worker on
  // a many-core machine would answer a doomed request inside its budget.
  const std::size_t backlog = 2 * ThreadPool::shared().size() + 6;
  std::vector<Ticket> tickets;
  for (std::size_t i = 0; i < backlog; ++i) {
    ScheduleRequest req;
    req.tree = tree;
    req.algo = "ParDeepestFirst";
    req.p = 2 + static_cast<int>(i);
    req.priority = Priority::kInteractive;  // always ahead of the doomed
    tickets.push_back(service.submit(std::move(req)));
  }
  std::uint64_t expired = 0;
  std::vector<Ticket> doomed_tickets;
  for (std::size_t i = 0; i < doomed; ++i) {
    ScheduleRequest req;
    req.tree = tree;
    // Distinct p per doomed request => distinct cache keys, so the miss
    // counter counts every doomed compute, not just the first.
    req.algo = "ParInnerFirst";
    req.p = 2 + static_cast<int>(backlog + i);
    req.priority = Priority::kBulk;
    req.deadline_ms = 0.05;
    doomed_tickets.push_back(service.submit(std::move(req)));
  }
  for (Ticket& t : tickets) (void)t.wait();
  for (Ticket& t : doomed_tickets) {
    const ServiceResult r = t.wait();
    if (!r.ok() && r.error().code == ErrorCode::kDeadlineExpired) ++expired;
  }
  const std::uint64_t computed_for_doomed =
      service.cache_stats().misses - backlog;
  return {expired, computed_for_doomed};
}

/// Experiment 3: the cost of the submission surface itself. One cache-hot
/// request, answered `ops` times through submit() + Ticket::wait() — all
/// compute is a cache hit, so the measured time is queue admission +
/// completion plumbing. Returns requests/sec.
double run_ticket_overhead(std::size_t ops) {
  SchedulingService service;
  Rng rng(0x71c4e7);
  ScheduleRequest req;
  req.tree = service.intern(synthetic_assembly_tree(200, 2.0, rng));
  req.algo = "ParInnerFirst";
  req.p = 4;
  (void)unwrap(service.submit(req).wait());  // warm the cache entry

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    (void)unwrap(service.submit(req).wait());
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  return static_cast<double>(ops) / elapsed.count();
}

/// Experiment 4: the whole networked stack over loopback, protocol v2
/// against protocol v3 at several pipeline depths.
struct LoopbackResult {
  double rps = 0.0;
  double p50_ms = 0.0;  ///< per-request RTT (batch=1) or per-batch RTT
  double p99_ms = 0.0;
};

struct LoopbackSpec {
  net::Protocol protocol = net::Protocol::kText;
  std::size_t batch = 1;  ///< 1 = synchronous; k = k requests per send
  bool cached = true;
  bool unix_socket = false;
  bool traced = false;  ///< run with the process tracer recording spans
};

/// The request line for slot (client, i): 4 distinct trees x 8 p values
/// = a 32-key spec pool, so cached runs settle into pure hits while
/// uncached ones pay full compute per request.
std::string loopback_line(NodeId tree_n, std::size_t client, std::size_t i) {
  return "synthetic:" + std::to_string(tree_n) + ":" +
         std::to_string((client + i) % 4) + " ParInnerFirst " +
         std::to_string(2 + static_cast<int>(i % 8)) +
         " id=" + std::to_string(i);
}

LoopbackResult run_loopback(const LoopbackSpec& spec, std::size_t clients,
                            std::size_t per_client, NodeId tree_n) {
  // Experiment 7 flips the process-wide tracer on for the whole run —
  // the server records its net and compute spans exactly as it would
  // after a production `trace start`.
  if (spec.traced) obs::Tracer::global().enable();
  ServiceConfig service_config;
  if (!spec.cached) service_config.cache_bytes = 0;
  SchedulingService service(service_config);
  net::ServerConfig server_config;  // TCP: port 0 = ephemeral
  const std::string unix_path =
      "/tmp/treesched_bench_" + std::to_string(::getpid()) + ".sock";
  if (spec.unix_socket) server_config.frontend.listen.unix_path = unix_path;
  // Batched clients park up to `batch` requests per frame in the window.
  server_config.frontend.session.max_pending =
      std::max<std::size_t>(64, spec.batch + 8);
  net::Server server(service, server_config);
  std::thread io([&server] { server.run(); });
  const auto connect = [&] {
    return spec.unix_socket
               ? net::Client::connect_unix(unix_path, spec.protocol)
               : net::Client("127.0.0.1", server.port(), spec.protocol);
  };

  if (spec.cached) {
    // Warm every key in the pool so the timed phase is all cache hits —
    // the number should price the transport, not the first-pass misses.
    net::Client warm = connect();
    for (std::size_t i = 0; i < 4 * 8; ++i) {
      const ResponseLine resp = warm.request(loopback_line(tree_n, i, i));
      if (!resp.ok) {
        throw std::runtime_error("loopback warm-up failed: " + resp.message);
      }
    }
  }

  // Request lines (and their batch groupings) are built OUTSIDE the
  // timed loop: the bench prices the wire, not std::to_string.
  const std::size_t rounds = std::max<std::size_t>(1, per_client / spec.batch);
  const std::size_t actual_per_client = rounds * spec.batch;
  std::vector<std::vector<std::vector<std::string>>> batches(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    batches[c].resize(rounds);
    std::size_t i = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t b = 0; b < spec.batch; ++b, ++i) {
        batches[c][r].push_back(loopback_line(tree_n, c, i));
      }
    }
  }

  std::vector<std::vector<double>> latencies(clients);
  // Failures are carried back to the main thread: an exception escaping
  // a std::thread body would terminate the whole bench with no message.
  std::vector<std::exception_ptr> failures(clients);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      try {
        net::Client client = connect();
        std::vector<double>& lat = latencies[c];
        lat.reserve(rounds);
        for (const std::vector<std::string>& round : batches[c]) {
          const auto r0 = std::chrono::steady_clock::now();
          if (round.size() == 1) {
            const ResponseLine resp = client.request(round.front());
            if (!resp.ok) {
              throw std::runtime_error("loopback request failed: " +
                                       resp.message);
            }
          } else {
            client.send_batch(round);
            for (std::size_t i = 0; i < round.size(); ++i) {
              const auto resp = client.recv_response();
              if (!resp || !resp->ok) {
                throw std::runtime_error(
                    "loopback batch request failed: " +
                    (resp ? resp->message : std::string("connection closed")));
              }
            }
          }
          const std::chrono::duration<double, std::milli> rtt =
              std::chrono::steady_clock::now() - r0;
          lat.push_back(rtt.count());
        }
      } catch (...) {
        failures[c] = std::current_exception();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  server.stop();
  io.join();
  if (spec.traced) obs::Tracer::global().disable();
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }

  std::vector<double> all;
  for (const std::vector<double>& lat : latencies) {
    all.insert(all.end(), lat.begin(), lat.end());
  }
  std::sort(all.begin(), all.end());
  LoopbackResult result;
  result.rps =
      static_cast<double>(clients * actual_per_client) / elapsed.count();
  result.p50_ms = quantile_sorted(all, 0.50);
  result.p99_ms = quantile_sorted(all, 0.99);
  return result;
}

/// Experiment 6: the router hop, priced within one run. The same
/// cache-hot closed loop (text v2, batch=1) runs twice against the SAME
/// backend service — once straight at its server port, once through a
/// cluster::Router fronting that single node — so routed/direct
/// isolates exactly what the router adds (spec key, ring walk, upstream
/// pipe, a second loopback hop) from the machine it ran on.
struct RouterCompare {
  double direct_rps = 0.0;
  double routed_rps = 0.0;
};

double run_closed_loop(std::uint16_t port, std::size_t clients,
                       std::size_t per_client, NodeId tree_n) {
  std::vector<std::exception_ptr> failures(clients);
  std::vector<std::thread> workers;
  workers.reserve(clients);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      try {
        net::Client client("127.0.0.1", port, net::Protocol::kText);
        for (std::size_t i = 0; i < per_client; ++i) {
          const ResponseLine resp =
              client.request(loopback_line(tree_n, c, i));
          if (!resp.ok) {
            throw std::runtime_error("router-compare request failed: " +
                                     resp.message);
          }
        }
      } catch (...) {
        failures[c] = std::current_exception();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }
  return static_cast<double>(clients * per_client) / elapsed.count();
}

RouterCompare run_router_compare(std::size_t clients, std::size_t per_client,
                                 NodeId tree_n) {
  SchedulingService service;  // cache ON: the timed loops are all hits
  net::Server server(service, net::ServerConfig{});
  std::thread io([&server] { server.run(); });

  cluster::RouterConfig router_config;
  router_config.nodes = {"127.0.0.1:" + std::to_string(server.port())};
  router_config.health_interval_ms = 10.0;
  router_config.reconnect_backoff_ms = 20.0;
  cluster::Router router(std::move(router_config));
  std::thread router_io([&router] { router.run(); });

  {
    // The router only forwards once a health ping marked the node up;
    // then warm the 32-key pool (one backend cache serves both loops).
    net::Client probe("127.0.0.1", router.port(), net::Protocol::kText);
    bool up = false;
    for (int tries = 0; tries < 500 && !up; ++tries) {
      const ResponseLine st = probe.request("stats");
      for (const auto& [key, value] : st.stats) {
        if (key == "nodes_up" && value >= 1) up = true;
      }
      if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!up) throw std::runtime_error("router never saw its backend up");
    for (std::size_t i = 0; i < 4 * 8; ++i) {
      const ResponseLine resp = probe.request(loopback_line(tree_n, i, i));
      if (!resp.ok) {
        throw std::runtime_error("router warm-up failed: " + resp.message);
      }
    }
  }

  RouterCompare result;
  result.direct_rps =
      run_closed_loop(server.port(), clients, per_client, tree_n);
  result.routed_rps =
      run_closed_loop(router.port(), clients, per_client, tree_n);

  router.stop();
  router_io.join();
  server.stop();
  io.join();
  return result;
}

int bench_main(int argc, char** argv) {
  using namespace treesched;
  CliArgs args(argc, argv);
  const auto num_trees = static_cast<std::size_t>(args.get_int("trees", 6));
  const auto n = static_cast<NodeId>(args.get_int("n", 2000));
  const auto repeat = static_cast<std::size_t>(args.get_int("repeat", 20));
  const std::string procs_csv = args.get("procs", "2,8,32");
  const std::string algos_csv = args.get(
      "algos", "ParSubtrees,ParInnerFirst,ParDeepestFirst,Liu,BestPostorder");
  const std::string json_path = args.get("json", "");
  const auto probes = static_cast<std::size_t>(args.get_int("probes", 30));
  const auto bulk_per_probe =
      static_cast<std::size_t>(args.get_int("bulk-per-probe", 3));
  const auto bulk_n = static_cast<NodeId>(args.get_int("bulk-n", 3000));
  const auto probe_n = static_cast<NodeId>(args.get_int("probe-n", 300));
  const auto ticket_ops =
      static_cast<std::size_t>(args.get_int("ticket-ops", 20000));
  const auto server_clients =
      static_cast<std::size_t>(args.get_int("server-clients", 4));
  // Long enough that each cached run reaches steady state even on a
  // small CI box — at batch=256 this is still only 8 timed rounds per
  // client, and short runs drown the v2-vs-v3 ratio in startup noise.
  const auto server_requests =
      static_cast<std::size_t>(args.get_int("server-requests", 2048));
  const auto server_n =
      static_cast<NodeId>(args.get_int("server-n", 500));
  args.reject_unknown();

  std::vector<int> procs;
  for (const std::string& tok : split_csv(procs_csv)) {
    procs.push_back(std::stoi(tok));
  }
  const std::vector<std::string> algos = split_csv(algos_csv);

  // The distinct request set. Both services intern the same trees.
  SchedulingService uncached(ServiceConfig{.cache_bytes = 0});
  SchedulingService cached;
  std::vector<ScheduleRequest> uncached_reqs, cached_reqs;
  Rng rng(0x5e41ce);
  for (std::size_t t = 0; t < num_trees; ++t) {
    const Tree tree = synthetic_assembly_tree(n, 2.0, rng);
    const TreeHandle hu = uncached.intern(tree);
    const TreeHandle hc = cached.intern(tree);
    for (const std::string& algo : algos) {
      for (int p : procs) {
        ScheduleRequest req;
        req.algo = algo;
        req.p = p;
        req.tree = hu;
        uncached_reqs.push_back(req);
        req.tree = hc;
        cached_reqs.push_back(req);
      }
    }
  }
  const std::size_t distinct = cached_reqs.size();

  std::cout << "== bench_service ==\n"
            << "distinct requests: " << distinct << "  (" << num_trees
            << " trees x " << algos.size() << " algos x " << procs.size()
            << " procs, n = " << n << ")\n"
            << "workload: " << distinct * repeat
            << " requests (each distinct request repeated " << repeat
            << "x)\n\n";

  // Uncached: one pass is enough to price the compute path (every pass
  // costs the same; repeating it `repeat` times only wastes time).
  const double uncached_rps = run_requests(uncached, uncached_reqs, 1);
  const double cached_rps = run_requests(cached, cached_reqs, repeat);
  const double speedup = cached_rps / uncached_rps;

  const CacheStats cs = cached.cache_stats();
  std::cout << std::fixed << std::setprecision(0)
            << "uncached: " << uncached_rps << " requests/sec\n"
            << "cached:   " << cached_rps << " requests/sec\n"
            << std::setprecision(1) << "speedup:  " << speedup << "x"
            << (speedup >= 10.0 ? "  (meets the >= 10x bar)"
                                : "  (BELOW the >= 10x bar)")
            << "\n"
            << "cache: " << cs.hits << " hits / " << cs.misses
            << " misses (" << std::setprecision(1)
            << 100.0 * cs.hit_rate() << "% hit rate), " << cs.entries
            << " entries, " << cs.bytes << " bytes\n";

  MixedResult with_queue, fifo;
  std::uint64_t expired = 0, computed_for_doomed = 0;
  std::size_t doomed = 0;
  if (probes > 0) {
    std::cout << "\n== mixed-priority latency ==\n"
              << probes << " interactive probes (n = " << probe_n
              << ") against " << probes * bulk_per_probe
              << " Bulk requests (n = " << bulk_n << "), uncached\n";
    with_queue = run_mixed(Priority::kInteractive, probes, bulk_per_probe,
                           bulk_n, probe_n);
    fifo = run_mixed(Priority::kBulk, probes, bulk_per_probe, bulk_n,
                     probe_n);
    std::cout << std::setprecision(2)
              << "probe latency, priority=interactive: p50 = "
              << with_queue.probe_p50_ms
              << " ms, p99 = " << with_queue.probe_p99_ms << " ms\n"
              << "probe latency, priority=bulk (FIFO): p50 = "
              << fifo.probe_p50_ms << " ms, p99 = " << fifo.probe_p99_ms
              << " ms\n"
              << "interactive p99 is " << std::setprecision(1)
              << fifo.probe_p99_ms /
                     std::max(with_queue.probe_p99_ms, 1e-9)
              << "x lower than FIFO\n";

    doomed = probes;
    const auto [exp, computed] = run_expiry(doomed, bulk_n);
    expired = exp;
    computed_for_doomed = computed;
    std::cout << "deadline wave: " << expired << "/" << doomed
              << " expired with the typed error, " << computed_for_doomed
              << " of them ever reached a scheduler\n";
  }

  double submit_wait_rps = 0.0;
  if (ticket_ops > 0) {
    submit_wait_rps = run_ticket_overhead(ticket_ops);
    std::cout << "\n== ticket overhead ==\n"
              << ticket_ops << " cache-hot requests\n"
              << std::setprecision(0)
              << "submit+wait:            " << submit_wait_rps
              << " requests/sec\n";
  }

  // Experiment 4 grid. Indexed [protocol][batch depth] for the cached
  // runs; uncached and unix-domain runs are singletons.
  const std::size_t kBatches[] = {1, 16, 256};
  LoopbackResult grid[2][3];
  LoopbackResult v2_uncached, v3_uncached, uds_v2, uds_v3;
  double v3_over_v2 = 0.0;
  if (server_clients > 0) {
    std::cout << "\n== loopback server, v2 vs v3 (experiment 4) ==\n"
              << server_clients << " concurrent clients x ~"
              << server_requests << " requests (n = " << server_n
              << "), cache-hot unless marked\n";
    for (int proto = 0; proto < 2; ++proto) {
      for (int b = 0; b < 3; ++b) {
        LoopbackSpec spec;
        spec.protocol =
            proto == 0 ? net::Protocol::kText : net::Protocol::kV3;
        spec.batch = kBatches[b];
        grid[proto][b] =
            run_loopback(spec, server_clients, server_requests, server_n);
        std::cout << (proto == 0 ? "v2 text" : "v3 bin ") << " batch="
                  << std::setw(3) << kBatches[b] << ": "
                  << std::setprecision(0) << std::setw(8)
                  << grid[proto][b].rps << " requests/sec, "
                  << (kBatches[b] == 1 ? "per-request" : "per-batch")
                  << " p50/p99 = " << std::setprecision(3)
                  << grid[proto][b].p50_ms << "/" << grid[proto][b].p99_ms
                  << " ms\n";
      }
    }
    v3_over_v2 = grid[1][1].rps / std::max(grid[0][0].rps, 1e-9);
    std::cout << std::setprecision(1) << "v3 batch=16 over text v2: "
              << v3_over_v2 << "x"
              << (v3_over_v2 >= 3.0 ? "  (meets the >= 3x bar)"
                                    : "  (BELOW the >= 3x bar)")
              << "\n";
    {
      LoopbackSpec spec;
      spec.cached = false;
      v2_uncached =
          run_loopback(spec, server_clients, server_requests, server_n);
      spec.protocol = net::Protocol::kV3;
      v3_uncached =
          run_loopback(spec, server_clients, server_requests, server_n);
    }
    std::cout << std::setprecision(0) << "uncached, batch=1: v2 = "
              << v2_uncached.rps << " requests/sec (p99 = "
              << std::setprecision(3) << v2_uncached.p99_ms
              << " ms), v3 = " << std::setprecision(0) << v3_uncached.rps
              << " requests/sec (p99 = " << std::setprecision(3)
              << v3_uncached.p99_ms << " ms)\n";
    {
      LoopbackSpec spec;
      spec.unix_socket = true;
      uds_v2 = run_loopback(spec, server_clients, server_requests, server_n);
      spec.protocol = net::Protocol::kV3;
      spec.batch = 16;
      uds_v3 = run_loopback(spec, server_clients, server_requests, server_n);
    }
    std::cout << std::setprecision(0) << "unix socket: v2 batch=1 = "
              << uds_v2.rps << " requests/sec, v3 batch=16 = " << uds_v3.rps
              << " requests/sec\n";
  }

  // Experiment 6: direct vs routed cache-hot rps, same backend, same
  // run — the ratio is hardware-relative and gates in CI at >= 0.7x.
  RouterCompare router_compare;
  double router_over_direct = 0.0;
  if (server_clients > 0) {
    std::cout << "\n== router overhead, direct vs routed (experiment 6) =="
              << "\none backend node, " << server_clients
              << " clients x " << server_requests
              << " cache-hot text requests per path\n";
    router_compare =
        run_router_compare(server_clients, server_requests, server_n);
    router_over_direct = router_compare.routed_rps /
                         std::max(router_compare.direct_rps, 1e-9);
    std::cout << std::setprecision(0)
              << "direct to the node:  " << router_compare.direct_rps
              << " requests/sec\n"
              << "through the router:  " << router_compare.routed_rps
              << " requests/sec\n"
              << std::setprecision(2) << "routed/direct ratio: "
              << router_over_direct << "x"
              << (router_over_direct >= 0.7
                      ? "  (meets the >= 0.7x bar)"
                      : "  (BELOW the >= 0.7x bar)")
              << "\n";
  }

  // Experiment 7: tracing overhead. The same cache-hot v3 batch=1
  // run, tracer off vs on — the fractional rps loss is the price of
  // the span recorder's hot path, gated in CI at <= 5%.
  LoopbackResult trace_off, trace_on;
  double trace_overhead = 0.0;
  if (server_clients > 0) {
    std::cout << "\n== tracing overhead, recorder off vs on (experiment 7)"
              << " ==\n"
              << server_clients << " clients x " << server_requests
              << " cache-hot v3 batch=1 requests per path\n";
    LoopbackSpec spec;
    spec.protocol = net::Protocol::kV3;
    trace_off = run_loopback(spec, server_clients, server_requests, server_n);
    spec.traced = true;
    trace_on = run_loopback(spec, server_clients, server_requests, server_n);
    trace_overhead =
        1.0 - trace_on.rps / std::max(trace_off.rps, 1e-9);
    std::cout << std::setprecision(0)
              << "tracer off: " << trace_off.rps << " requests/sec\n"
              << "tracer on:  " << trace_on.rps << " requests/sec\n"
              << std::setprecision(1) << "overhead:   "
              << 100.0 * trace_overhead << "%"
              << (trace_overhead <= 0.05 ? "  (meets the <= 5% bar)"
                                         : "  (ABOVE the <= 5% bar)")
              << "\n";
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) throw std::runtime_error("cannot open " + json_path);
    os << std::setprecision(17)
       << "{\n"
       << "  \"schema\": \"treesched-bench-service-v8\",\n"
       << "  \"distinct_requests\": " << distinct << ",\n"
       << "  \"repeat\": " << repeat << ",\n"
       << "  \"uncached_requests_per_sec\": " << uncached_rps << ",\n"
       << "  \"cached_requests_per_sec\": " << cached_rps << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"cache_hit_rate\": " << cs.hit_rate() << ",\n"
       << "  \"mixed_probes\": " << probes << ",\n"
       << "  \"interactive_probe_p50_ms\": " << with_queue.probe_p50_ms
       << ",\n"
       << "  \"interactive_probe_p99_ms\": " << with_queue.probe_p99_ms
       << ",\n"
       << "  \"fifo_probe_p50_ms\": " << fifo.probe_p50_ms << ",\n"
       << "  \"fifo_probe_p99_ms\": " << fifo.probe_p99_ms << ",\n"
       << "  \"deadline_wave_expired\": " << expired << ",\n"
       << "  \"deadline_wave_submitted\": " << doomed << ",\n"
       << "  \"deadline_wave_computed\": " << computed_for_doomed << ",\n"
       << "  \"ticket_ops\": " << ticket_ops << ",\n"
       << "  \"ticket_submit_wait_rps\": " << submit_wait_rps << ",\n"
       << "  \"server_clients\": " << server_clients << ",\n"
       << "  \"server_requests_per_client\": " << server_requests << ",\n"
       // Legacy v4 keys, aliased to the closest v5 runs (text v2,
       // batch=1) so downstream trend tooling keeps a continuous
       // series across the schema bump.
       << "  \"server_cached_rps\": " << grid[0][0].rps << ",\n"
       << "  \"server_cached_p50_ms\": " << grid[0][0].p50_ms << ",\n"
       << "  \"server_cached_p99_ms\": " << grid[0][0].p99_ms << ",\n"
       << "  \"server_uncached_rps\": " << v2_uncached.rps << ",\n"
       << "  \"server_uncached_p50_ms\": " << v2_uncached.p50_ms << ",\n"
       << "  \"server_uncached_p99_ms\": " << v2_uncached.p99_ms << ",\n"
       << "  \"server_v2_batch1_rps\": " << grid[0][0].rps << ",\n"
       << "  \"server_v2_batch1_p50_ms\": " << grid[0][0].p50_ms << ",\n"
       << "  \"server_v2_batch1_p99_ms\": " << grid[0][0].p99_ms << ",\n"
       << "  \"server_v2_batch16_rps\": " << grid[0][1].rps << ",\n"
       << "  \"server_v2_batch256_rps\": " << grid[0][2].rps << ",\n"
       << "  \"server_v3_batch1_rps\": " << grid[1][0].rps << ",\n"
       << "  \"server_v3_batch1_p50_ms\": " << grid[1][0].p50_ms << ",\n"
       << "  \"server_v3_batch1_p99_ms\": " << grid[1][0].p99_ms << ",\n"
       << "  \"server_v3_batch16_rps\": " << grid[1][1].rps << ",\n"
       << "  \"server_v3_batch16_p50_ms\": " << grid[1][1].p50_ms << ",\n"
       << "  \"server_v3_batch16_p99_ms\": " << grid[1][1].p99_ms << ",\n"
       << "  \"server_v3_batch256_rps\": " << grid[1][2].rps << ",\n"
       << "  \"server_v3_over_v2_batch16\": " << v3_over_v2 << ",\n"
       << "  \"server_v3_uncached_rps\": " << v3_uncached.rps << ",\n"
       << "  \"server_v3_uncached_p99_ms\": " << v3_uncached.p99_ms
       << ",\n"
       << "  \"server_uds_v2_batch1_rps\": " << uds_v2.rps << ",\n"
       << "  \"server_uds_v3_batch16_rps\": " << uds_v3.rps << ",\n"
       << "  \"router_direct_rps\": " << router_compare.direct_rps << ",\n"
       << "  \"router_routed_rps\": " << router_compare.routed_rps << ",\n"
       << "  \"router_over_direct_ratio\": " << router_over_direct << ",\n"
       << "  \"trace_off_rps\": " << trace_off.rps << ",\n"
       << "  \"trace_on_rps\": " << trace_on.rps << ",\n"
       // Fraction of cache-hot rps lost with the span recorder on;
       // negative = noise in the tracer's favor. Within-run, so the
       // <= 0.05 CI gate holds on any machine.
       << "  \"trace_overhead_ratio\": " << trace_overhead << "\n"
       << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return treesched::bench::run_main(argc, argv, bench_main);
}
