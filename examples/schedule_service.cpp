// Streaming front-end for the scheduling service: reads protocol-v2
// request lines from a file or stdin and writes the answer lines to
// stdout. It is a schedule_server (net::Server) whose one client is this
// process: the server listens on a unix-domain socket in a private
// (0700) temporary directory, a pump thread copies the input lines into
// that socket, and the main thread copies the answer lines to stdout. So
// the grammar, the answer order, id tags, cancel, ping, stats, trace,
// --slow-ms and /metrics are the server's (net/session.hpp).
//
// What this front-end adds to the server:
//  * Blocking backpressure: the pump sends a line only while fewer than
//    --max-pending sent lines are unanswered, so a huge input file waits
//    for its answers instead of meeting queue_full. Each sent line is
//    settled by one answer line, except a successful `cancel id=N`, whose
//    target's code=cancelled answer settles both. Blank and '#' comment
//    lines get no answer, so they are not sent.
//  * Trusted input: file: specs read any path, generator specs are
//    unbounded, and `trace dump=<name>` writes relative names inside the
//    working directory.
//  * The stream opens with one blank line, so the session speaks text v2
//    whatever the input's first byte (the `lines` stats key counts it).

#include <sys/socket.h>
#include <sys/un.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <mutex>
#include <string_view>
#include <thread>

#include "net/client.hpp"
#include "net/line_framer.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"

namespace {

using namespace treesched;

/// The private directory the server's socket lives in, created 0700 in
/// $TMPDIR (or /tmp). remove() takes it away, and so does every way out.
class SocketDir {
 public:
  SocketDir() {
    // A unix socket path holds at most sizeof(sun_path) - 1 bytes, so a
    // $TMPDIR too long for <dir>/treesched-XXXXXX/socket falls back to
    // /tmp.
    const char* tmp = std::getenv("TMPDIR");
    std::string base = tmp && *tmp ? tmp : "/tmp";
    if (base.size() + std::string_view("/treesched-XXXXXX/socket").size() >=
        sizeof(sockaddr_un{}.sun_path)) {
      base = "/tmp";
    }
    path_ = base + "/treesched-XXXXXX";
    if (::mkdtemp(path_.data()) == nullptr) {
      throw std::runtime_error("cannot create a socket directory from " +
                               path_);
    }
  }
  ~SocketDir() { remove(); }
  SocketDir(const SocketDir&) = delete;
  SocketDir& operator=(const SocketDir&) = delete;
  [[nodiscard]] std::string socket() const { return path_ + "/socket"; }
  void remove() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

 private:
  std::string path_;
};

/// The pump's window: sent lines not yet answered.
class Window {
 public:
  explicit Window(std::size_t max) : max_(max) {}
  /// Blocks until a line may be sent and counts it; false once closed.
  bool acquire() {
    std::unique_lock lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || unanswered_ < max_; });
    if (closed_) return false;
    ++unanswered_;
    return true;
  }
  void settle(std::size_t lines) {
    const std::lock_guard lock(mutex_);
    unanswered_ -= std::min(lines, unanswered_);
    ready_.notify_one();
  }
  void close() {
    const std::lock_guard lock(mutex_);
    closed_ = true;
    ready_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  const std::size_t max_;
  std::size_t unanswered_ = 0;
  bool closed_ = false;
};

/// Whether the session answers `line` at all: net::parse_text_line's
/// verdict, so the pump and the session cannot disagree.
bool answered(const std::string& line, std::size_t max_line) {
  RequestView req;
  std::string error;
  return net::parse_text_line({line, line.size() > max_line, line.size()},
                              max_line, req, error) != net::TextLine::kBlank;
}

/// Copies the input's answered lines into the socket, within the window,
/// then half-closes it: the session answers the rest and closes.
void pump(std::istream& in, std::size_t max_line, net::Client& client,
          Window& window, std::string& failure) {
  try {
    client.send_line("");  // text v2, whatever the input's first byte
    std::string line;
    while (std::getline(in, line)) {
      if (!answered(line, max_line)) continue;
      if (!window.acquire()) break;
      client.send_line(line);
    }
  } catch (const std::exception& e) {
    failure = e.what();
  }
  client.shutdown_write();
}

/// The serving and pumping threads, stopped and joined on every way out.
struct Threads {
  net::Server& server;
  net::Client& client;
  Window& window;
  std::thread serving;
  std::thread pumping;

  ~Threads() {
    // Normally the pump is done; else this wakes or fails it.
    window.close();
    (void)::shutdown(client.fd(), SHUT_RDWR);
    if (pumping.joinable()) pumping.join();
    server.stop();
    if (serving.joinable()) serving.join();
  }
};

void print_stats(const SchedulingService& service) {
  const CacheStats cs = service.cache_stats();
  const InstanceStore::Stats ss = service.store_stats();
  std::cerr << "cache: " << cs.hits << " hits, " << cs.misses << " misses ("
            << std::fixed << std::setprecision(1) << 100.0 * cs.hit_rate()
            << "% hit rate), " << cs.entries << " entries, " << cs.bytes
            << " bytes, " << cs.evictions << " evictions\n"
            << "store: " << ss.unique_trees << " unique trees, " << ss.hits
            << " intern hits, " << ss.bytes << " bytes held, " << ss.rejected
            << " rejected by budget\n";
  const QueueStats qs = service.queue_stats();
  for (int cls = 0; cls < kPriorityClasses; ++cls) {
    const ClassQueueStats& c = qs.by_class[static_cast<std::size_t>(cls)];
    if (c.admitted == 0) continue;
    const obs::HistogramSnapshot wait =
        service.queue_wait_window(static_cast<Priority>(cls));
    const auto ms = [&](double q) { return wait.quantile(q) / 1e6; };
    std::cerr << "queue[" << to_string(static_cast<Priority>(cls))
              << "]: " << c.admitted << " admitted, " << c.completed
              << " completed, " << c.expired << " expired, " << c.cancelled
              << " cancelled, " << c.rejected << " rejected, " << c.aged
              << " aged; wait ms p50/p90/p99 = " << std::setprecision(2)
              << ms(0.50) << "/" << ms(0.90) << "/" << ms(0.99) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliArgs args(argc, argv);
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    // Sizes in MiB, bounded so the shift cannot overflow.
    const auto mib = [&](const char* flag, std::int64_t fallback) {
      return static_cast<std::size_t>(args.get_int(flag, fallback, 0,
                                                   kMax >> 20))
             << 20;
    };
    const std::string input = args.get("input", "-");
    ServiceConfig service_config;
    service_config.cache_bytes = mib("cache-mb", 256);
    service_config.store.max_bytes = mib("store-mb", 0);
    service_config.validate = args.get_bool("validate", false);
    service_config.queue.age_after =
        std::chrono::milliseconds(args.get_int("age-ms", 250));
    net::ServerConfig config;
    net::FrontendConfig& frontend = config.frontend;
    frontend.max_conns = 1;
    frontend.session.max_pending = static_cast<std::size_t>(
        args.get_int("max-pending", 256, 0, kMax));
    frontend.session.trace_dir = ".";
    frontend.metrics_port =
        static_cast<int>(args.get_int("metrics-port", -1, -1, 65535));
    config.slow_ms = args.get_double("slow-ms", 0.0);
    config.spec = TreeSpecOptions{};
    const bool stats = args.get_bool("stats", false);
    args.reject_unknown();

    std::ifstream file;
    if (input != "-") {
      file.open(input);
      if (!file) throw std::runtime_error("cannot open " + input);
    }
    std::istream& in = input == "-" ? std::cin : file;

    SchedulingService service(service_config);
    SocketDir dir;
    frontend.listen.unix_path = dir.socket();
    net::Server server(service, config);
    // The listener is bound, so the connect completes before run() ever
    // accepts it; once connected, the directory has served its purpose.
    net::Client client = net::Client::connect_unix(dir.socket());
    dir.remove();
    if (server.metrics_port() != 0) {
      std::cerr << "metrics on 127.0.0.1:" << server.metrics_port() << "\n";
    }

    Window window(frontend.session.max_pending);
    std::string serve_failure;
    std::string pump_failure;
    {
      Threads threads{server, client, window, {}, {}};
      threads.serving = std::thread([&] {
        try {
          server.run();
        } catch (const std::exception& e) {
          serve_failure = e.what();
          (void)::shutdown(client.fd(), SHUT_RDWR);  // ends the read below
        }
      });
      threads.pumping = std::thread([&] {
        pump(in, frontend.session.max_line, client, window, pump_failure);
      });
      while (const std::optional<std::string> answer = client.recv_line()) {
        std::cout << *answer << '\n' << std::flush;
        // A code=cancelled answer also answers the cancel that caused it.
        const ResponseLine parsed = parse_response_line(*answer);
        const bool cancelled =
            !parsed.ok && parsed.code == ErrorCode::kCancelled;
        window.settle(cancelled ? 2 : 1);
      }
    }
    for (const std::string& failure : {serve_failure, pump_failure}) {
      if (!failure.empty()) throw std::runtime_error(failure);
    }
    if (stats) print_stats(service);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
