// The networked front-end (src/net/): LineFramer robustness under
// adversarial chunkings, in both its owning and its zero-copy callback
// form, and in-process
// end-to-end coverage of the epoll server over real loopback sockets —
// tagged out-of-order answers, ping/stats control lines, per-connection
// queue_full admission, oversized-line survival, cancel, half-close,
// abrupt disconnect, write backpressure, and graceful drain. The tests
// of the client session both tiers share run once against the server
// and once against a router over one node (tier_harness.hpp), as do the
// window-bound and SLO-accounting tests. The shared flag reader and the
// checks both tiers make on their client-facing settings are pinned
// here too. The server's stats vocabulary (its `stats` keys and
// /metrics series) is pinned as golden tables.

#include "net/line_framer.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "campaign/dataset.hpp"
#include "cluster/router.hpp"
#include "gate_scheduler.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/service.hpp"
#include "test_helpers.hpp"
#include "tier_harness.hpp"
#include "trees/io.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace treesched {
namespace {

using net::Client;
using net::LineFramer;
using net::Server;
using net::ServerConfig;
using testing::admitted;
using testing::eventually;
using testing::for_each_tier;
using testing::GateGuard;
using testing::ServerHarness;
using testing::TierHarness;

// ---------------------------------------------------------------------------
// LineFramer: byte-by-byte and adversarial chunkings.
// ---------------------------------------------------------------------------

std::vector<LineFramer::Line> feed_str(LineFramer& framer,
                                       const std::string& chunk) {
  return framer.feed(chunk.data(), chunk.size());
}

TEST(LineFramer, ByteByByteProducesTheSameLines) {
  const std::string input = "random:60:1 Liu 1 id=7\ncancel id=7\nping\n";
  LineFramer framer;
  std::vector<std::string> lines;
  for (const char c : input) {
    for (LineFramer::Line& line : framer.feed(&c, 1)) {
      EXPECT_FALSE(line.overflow);
      lines.push_back(std::move(line.text));
    }
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "random:60:1 Liu 1 id=7");
  EXPECT_EQ(lines[1], "cancel id=7");
  EXPECT_EQ(lines[2], "ping");
  EXPECT_EQ(framer.partial_bytes(), 0u);
}

TEST(LineFramer, ManyLinesInOneChunkAndSplitsMidToken) {
  LineFramer framer;
  // Three lines, the last unterminated and split mid-token.
  auto lines = feed_str(framer, "a b\nc d\ne f");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].text, "a b");
  EXPECT_EQ(lines[1].text, "c d");
  EXPECT_EQ(framer.partial_bytes(), 3u);
  // The token "f" continues in the next chunk — "e f" + "g" = "e fg".
  lines = feed_str(framer, "g h\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].text, "e fg h");
}

TEST(LineFramer, StripsCarriageReturns) {
  LineFramer framer;
  const auto lines = feed_str(framer, "ping\r\npong\r\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].text, "ping");
  EXPECT_EQ(lines[1].text, "pong");
}

TEST(LineFramer, OversizedLineOverflowsAndTheStreamRecovers) {
  LineFramer framer(/*max_line=*/8);
  // 20 payload bytes, then a clean line — fed in awkward chunks.
  auto lines = feed_str(framer, "0123456789");
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(framer.partial_bytes(), 8u) << "buffering stops at the limit";
  lines = feed_str(framer, "abcdefghij\nok line\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].overflow);
  EXPECT_EQ(lines[0].text, "01234567") << "truncated to max_line";
  EXPECT_EQ(lines[0].wire_bytes, 20u) << "counts the discarded bytes too";
  EXPECT_FALSE(lines[1].overflow);
  EXPECT_EQ(lines[1].text, "ok line");
}

TEST(LineFramer, FinishFlushesTheUnterminatedTail) {
  LineFramer framer;
  EXPECT_FALSE(framer.finish().has_value()) << "nothing buffered";
  (void)feed_str(framer, "stats");
  const auto last = framer.finish();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->text, "stats");
  EXPECT_FALSE(framer.finish().has_value()) << "finish() consumes";
}

// The callback (view) form: the same lines as the vector form under any
// chunking, handed out without a copy.

/// A seeded wire corpus for max_line 32 and the lines it must frame to,
/// the unterminated tail (flushed by finish()) last.
struct FramerCorpus {
  std::string wire;
  std::vector<LineFramer::Line> lines;
};

FramerCorpus framer_corpus(std::size_t max_line, std::uint64_t seed) {
  FramerCorpus corpus;
  const auto add = [&](const std::string& raw, const std::string& text,
                       bool overflow) {
    corpus.wire += raw + "\n";
    corpus.lines.push_back({text, overflow, raw.size()});
  };
  add("ping\r", "ping", false);
  add("", "", false);
  add("   ", "   ", false);
  add("# a comment line", "# a comment line", false);
  add("random:60:1 Liu 1 id=7 # tagged\r", "random:60:1 Liu 1 id=7 # tagged",
      false);
  add(std::string(max_line, 'x'), std::string(max_line, 'x'), false);
  add(std::string(max_line - 1, 'c') + "\r", std::string(max_line - 1, 'c'),
      false);
  // One byte over: the '\r' no longer fits, so the line overflows.
  add(std::string(max_line, 'c') + "\r", std::string(max_line, 'c'), true);
  add(std::string(5 * max_line, 'y'), std::string(max_line, 'y'), true);
  std::mt19937_64 rng(seed);
  const std::string alphabet = "ab #\r\t=:019";
  for (int i = 0; i < 60; ++i) {
    std::string raw(rng() % (max_line + 8), ' ');
    for (char& c : raw) c = alphabet[rng() % alphabet.size()];
    if (raw.size() > max_line) {
      add(raw, raw.substr(0, max_line), true);
    } else if (!raw.empty() && raw.back() == '\r') {
      add(raw, raw.substr(0, raw.size() - 1), false);
    } else {
      add(raw, raw, false);
    }
  }
  corpus.wire += "stats id=3";
  corpus.lines.push_back({"stats id=3", false, 10});
  return corpus;
}

void expect_same_lines(const std::vector<LineFramer::Line>& got,
                       const std::vector<LineFramer::Line>& want,
                       const std::string& how) {
  ASSERT_EQ(got.size(), want.size()) << how;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].text, want[i].text) << how << ", line " << i;
    EXPECT_EQ(got[i].overflow, want[i].overflow) << how << ", line " << i;
    EXPECT_EQ(got[i].wire_bytes, want[i].wire_bytes) << how << ", line " << i;
  }
}

TEST(LineFramer, ViewFormMatchesTheVectorFormUnderRandomChunkings) {
  constexpr std::size_t kMaxLine = 32;
  const FramerCorpus corpus = framer_corpus(kMaxLine, 7);
  const std::string& wire = corpus.wire;
  std::mt19937_64 rng(11);
  // Chunk bound per trial: byte by byte, small, large, and whole.
  for (const std::size_t max_chunk :
       {std::size_t{1}, std::size_t{3}, std::size_t{7}, std::size_t{50},
        std::size_t{200}, wire.size()}) {
    for (int trial = 0; trial < 4; ++trial) {
      LineFramer by_view(kMaxLine);
      LineFramer by_vector(kMaxLine);
      std::vector<LineFramer::Line> viewed;
      std::vector<LineFramer::Line> vectored;
      for (std::size_t at = 0; at < wire.size();) {
        const std::size_t len =
            std::min(wire.size() - at, 1 + rng() % max_chunk);
        // A private copy per chunk, as a read() buffer would be.
        const std::string chunk = wire.substr(at, len);
        by_view.feed(chunk.data(), chunk.size(),
                     [&](const LineFramer::LineView& line) {
                       viewed.push_back({std::string(line.text),
                                         line.overflow, line.wire_bytes});
                       return true;
                     });
        for (LineFramer::Line& line : by_vector.feed(chunk.data(), len)) {
          vectored.push_back(std::move(line));
        }
        EXPECT_LE(by_view.partial_bytes(), kMaxLine);
        at += len;
      }
      if (auto last = by_view.finish()) viewed.push_back(std::move(*last));
      if (auto last = by_vector.finish()) vectored.push_back(std::move(*last));
      const std::string how = "chunks of <= " + std::to_string(max_chunk);
      expect_same_lines(viewed, vectored, how);
      expect_same_lines(viewed, corpus.lines, how);
    }
  }
}

TEST(LineFramer, ViewFormPointsIntoTheChunk) {
  const std::string chunk = "ping\nrandom:60:1 Liu 1\r\nstats\n";
  LineFramer framer;
  std::vector<std::string_view> views;
  framer.feed(chunk.data(), chunk.size(),
              [&](const LineFramer::LineView& line) {
                views.push_back(line.text);
                return true;
              });
  ASSERT_EQ(views.size(), 3u);
  for (const std::string_view view : views) {
    EXPECT_GE(view.data(), chunk.data()) << "a line inside one chunk is "
                                            "handed out without a copy";
    EXPECT_LE(view.data() + view.size(), chunk.data() + chunk.size());
  }
  EXPECT_EQ(views[1], "random:60:1 Liu 1");
}

TEST(LineFramer, CallbackReturningFalseStopsTheRestOfTheChunk) {
  LineFramer framer;
  std::vector<std::string> seen;
  const auto stop_after = [&](std::size_t n) {
    return [&seen, n](const LineFramer::LineView& line) {
      seen.emplace_back(line.text);
      return seen.size() < n;
    };
  };
  const std::string chunk = "a\nb\nc\ntail";
  framer.feed(chunk.data(), chunk.size(), stop_after(2));
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(framer.partial_bytes(), 0u) << "the unexamined rest is dropped";
  EXPECT_FALSE(framer.finish().has_value());

  // Stopping on a line that straddled two chunks releases its buffer too.
  seen.clear();
  framer.feed("x", 1, stop_after(1));
  const std::string next = "y\nz\n";
  framer.feed(next.data(), next.size(), stop_after(1));
  EXPECT_EQ(seen, (std::vector<std::string>{"xy"}));
  EXPECT_EQ(framer.partial_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: a real Server on 127.0.0.1, in-process, driven by Client.
// ---------------------------------------------------------------------------

Client connect(const ServerHarness& harness) {
  return Client("127.0.0.1", harness.port());
}

/// Request lines that hold a pool worker until the test's GateGuard
/// opens; distinct p per index keeps every cache key distinct.
std::string gate_line(int index, const std::string& extra = "") {
  return "random:60:1 TestGate " + std::to_string(2 + index) +
         " priority=interactive" + extra;
}

TEST(ScheduleServer, AnswersAndCachesOverTheWire) {
  ServerHarness harness;
  Client client = connect(harness);
  const ResponseLine first = client.request("random:300:1 Liu 1 id=1");
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(first.algo, "Liu");
  EXPECT_EQ(first.n, 300);
  EXPECT_GT(first.makespan, 0.0);
  const ResponseLine second = client.request("random:300:1 Liu 1 id=2");
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cache_hit) << "same key must hit the result cache";
  EXPECT_EQ(second.makespan, first.makespan) << "bit-identical answers";
}

TEST(ScheduleServer, TaggedAnswersMayArriveOutOfOrder) {
  ServerHarness harness;
  Client client = connect(harness);
  // One write, two tagged requests: answers may stream in either order;
  // the tags keep them attributable.
  client.send_line("random:400:2 ParSubtrees 4 id=10");
  client.send_line("random:200:3 Liu 1 id=11");
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value());
    const ResponseLine resp = parse_response_line(*line);
    EXPECT_TRUE(resp.ok);
    ASSERT_TRUE(resp.id.has_value());
    ids.push_back(*resp.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{10, 11}));
}

TEST(ScheduleServer, PingAndStatsAnswerImmediately) {
  ServerHarness harness;
  Client client = connect(harness);
  const ResponseLine pong = client.request("ping id=5");
  EXPECT_EQ(pong.kind, ResponseLine::Kind::kPong);
  EXPECT_EQ(pong.id, 5u);

  (void)client.request("random:100:1 Liu 1 id=1");
  const ResponseLine stats = client.request("stats id=6");
  EXPECT_EQ(stats.kind, ResponseLine::Kind::kStats);
  EXPECT_EQ(stats.id, 6u);
  std::uint64_t conns = 0, admitted = 0;
  bool saw_conns = false, saw_admitted = false;
  for (const auto& [key, value] : stats.stats) {
    if (key == "conns") {
      conns = value;
      saw_conns = true;
    }
    if (key == "queue_admitted") {
      admitted = value;
      saw_admitted = true;
    }
  }
  ASSERT_TRUE(saw_conns);
  ASSERT_TRUE(saw_admitted);
  EXPECT_EQ(conns, 1u);
  EXPECT_GE(admitted, 1u);
}

TEST(ScheduleServer, TraceDumpIsRefusedWithoutATraceDir) {
  // A dump names a file the SERVER writes; with no --trace-dir
  // configured (the default) any network client asking for one must get
  // a typed refusal, never a file.
  ServerHarness harness;
  Client client = connect(harness);
  const ResponseLine err = client.request("trace dump=t.json id=1");
  ASSERT_FALSE(err.ok);
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  EXPECT_EQ(err.id, 1u);
  // The connection survives, and the no-file trace verbs still answer.
  const ResponseLine status = client.request("trace status id=2");
  EXPECT_EQ(status.kind, ResponseLine::Kind::kTrace);
  EXPECT_TRUE(status.ok);
  EXPECT_EQ(status.id, 2u);
}

TEST(ScheduleServer, TraceDumpIsConfinedToTheConfiguredDir) {
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') dir += '/';
  ServerConfig config;
  config.frontend.session.trace_dir = dir;
  ServerHarness harness(config);
  Client client = connect(harness);
  // Every way out of the directory is a typed error, never a write.
  for (const char* line : {"trace dump=/etc/evil id=1",
                           "trace dump=../evil.json id=2",
                           "trace dump=a/../evil.json id=3",
                           "trace dump=./evil.json id=4"}) {
    const ResponseLine err = client.request(line);
    ASSERT_FALSE(err.ok) << line;
    EXPECT_EQ(err.code, ErrorCode::kBadRequest) << line;
  }
  // A plain relative name lands inside the configured directory.
  const std::string path = dir + "net_trace_dump.json";
  std::remove(path.c_str());
  const ResponseLine ok = client.request("trace dump=net_trace_dump.json id=5");
  EXPECT_EQ(ok.kind, ResponseLine::Kind::kTrace);
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.id, 5u);
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "dump did not land in the trace dir: " << path;
  std::remove(path.c_str());
}

TEST(ScheduleServer, FileSpecsAreRefusedWithoutATreeDir) {
  // A file: spec names a file the SERVER reads; with no --tree-dir
  // configured (the default) any network client asking for one must get
  // a typed refusal — and the error text must never carry file contents.
  ServerHarness harness;
  Client client = connect(harness);
  const ResponseLine err = client.request("file:/etc/passwd Liu 1 id=1");
  ASSERT_FALSE(err.ok);
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  EXPECT_EQ(err.id, 1u);
  EXPECT_EQ(err.message.find("root:"), std::string::npos)
      << "error text leaked file contents: " << err.message;
  EXPECT_NE(err.message.find("tree-dir"), std::string::npos)
      << "the refusal should point at the --tree-dir opt-in";
  // No tree was read or interned, and the connection survives.
  EXPECT_EQ(harness.service().store_stats().unique_trees, 0u);
  const ResponseLine ok = client.request("random:100:1 Liu 1 id=2");
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.id, 2u);
}

TEST(ScheduleServer, FileSpecsAreConfinedToTheConfiguredTreeDir) {
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') dir += '/';
  const std::string path = dir + "net_spec_tree.txt";
  write_tree_file(path, tree_from_spec("random:40:7"));
  const std::string junk_path = dir + "net_spec_junk.txt";
  std::ofstream(junk_path) << "junk-header 42\nsecret-looking bytes\n";
  ServerConfig config;
  config.spec.allow_file = true;
  config.spec.file_dir = dir;
  ServerHarness harness(config);
  Client client = connect(harness);
  // Every way out of the directory is a typed error, never a read.
  for (const char* line : {"file:/etc/passwd Liu 1 id=1",
                           "file:../evil.txt Liu 1 id=2",
                           "file:a/../../evil.txt Liu 1 id=3",
                           "file:./net_spec_tree.txt Liu 1 id=4"}) {
    const ResponseLine err = client.request(line);
    ASSERT_FALSE(err.ok) << line;
    EXPECT_EQ(err.code, ErrorCode::kBadRequest) << line;
    EXPECT_EQ(err.message.find("root:"), std::string::npos) << line;
  }
  // A failed read inside the directory names the client's spec and what
  // failed, never the server's directory or a byte of the file.
  const ResponseLine missing =
      client.request("file:missing.tree Liu 1 id=6");
  ASSERT_FALSE(missing.ok);
  EXPECT_EQ(missing.code, ErrorCode::kBadRequest);
  EXPECT_NE(missing.message.find("file:missing.tree"), std::string::npos)
      << missing.message;
  EXPECT_NE(missing.message.find("cannot open"), std::string::npos)
      << missing.message;
  EXPECT_EQ(missing.message.find(dir), std::string::npos)
      << "error text leaked the tree directory: " << missing.message;
  const ResponseLine junk =
      client.request("file:net_spec_junk.txt Liu 1 id=7");
  ASSERT_FALSE(junk.ok);
  EXPECT_EQ(junk.code, ErrorCode::kBadRequest);
  EXPECT_NE(junk.message.find("not a treesched-tree v1 file"),
            std::string::npos)
      << junk.message;
  EXPECT_EQ(junk.message.find("junk-header"), std::string::npos)
      << "error text leaked file contents: " << junk.message;
  EXPECT_EQ(junk.message.find(dir), std::string::npos) << junk.message;
  // A plain relative name inside the tree dir is served.
  const ResponseLine ok = client.request("file:net_spec_tree.txt Liu 1 id=5");
  ASSERT_TRUE(ok.ok) << ok.message;
  EXPECT_EQ(ok.id, 5u);
  EXPECT_EQ(ok.n, 40);
  EXPECT_GT(ok.makespan, 0.0);
  std::remove(path.c_str());
  std::remove(junk_path.c_str());
}

TEST(ScheduleServer, HostileGeneratorSpecsAreRejectedBeforeAllocation) {
  ServerHarness harness;  // default --max-spec-nodes = 2'000'000
  Client client = connect(harness);
  // Each hostile spec gets exactly one typed bad_request: a 2-billion-node
  // ask (would be ~tens of GiB), a negative count, and a non-numeric one.
  for (const char* line : {"random:2000000000:1 Liu 1 id=1",
                           "random:-5:1 Liu 1 id=2",
                           "synthetic:999999999999999999999:1 Liu 1 id=3",
                           "grid:80000:80000:2 Liu 1 id=4"}) {
    const ResponseLine err = client.request(line);
    ASSERT_FALSE(err.ok) << line;
    EXPECT_EQ(err.code, ErrorCode::kBadRequest) << line;
  }
  // Nothing was allocated or interned, and the same socket still works.
  EXPECT_EQ(harness.service().store_stats().unique_trees, 0u);
  const ResponseLine ok = client.request("random:100:1 Liu 1 id=9");
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.id, 9u);
}

TEST(ScheduleServer, OversizedLineAnswersBadRequestAndTheConnectionSurvives) {
  ServerConfig config;
  config.frontend.session.max_line = 128;
  for_each_tier(config, [](TierHarness& tier) {
    Client client = tier.connect();
    const ResponseLine err =
        client.request(std::string(4096, 'x'));  // one huge bogus line
    ASSERT_FALSE(err.ok);
    EXPECT_EQ(err.code, ErrorCode::kBadRequest);
    // Same socket keeps working, correctly framed.
    const ResponseLine ok = client.request("random:100:1 Liu 1 id=1");
    EXPECT_TRUE(ok.ok);
    EXPECT_EQ(ok.id, 1u);
  });
}

TEST(ScheduleServer, PerConnectionWindowRejectsWithTypedQueueFull) {
  ServerConfig config;
  config.frontend.session.max_pending = 1;
  ServerHarness harness(config);
  GateGuard gate;
  Client client = connect(harness);
  // The gate keeps request 1 unsettled until the refusal is on the
  // wire, so the second line always meets a full window.
  client.send_line(gate_line(0, " id=1"));
  client.send_line("random:100:9 Liu 1 id=2");
  bool saw_ok = false, saw_queue_full = false;
  for (int i = 0; i < 2; ++i) {
    const auto line = client.recv_line();
    gate.open();  // the first answer is in; let request 1 finish
    ASSERT_TRUE(line.has_value());
    const ResponseLine resp = parse_response_line(*line);
    if (resp.ok) {
      EXPECT_EQ(resp.id, 1u);
      saw_ok = true;
    } else {
      EXPECT_EQ(resp.code, ErrorCode::kQueueFull);
      EXPECT_EQ(resp.id, 2u);
      saw_queue_full = true;
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_queue_full);
}

TEST(ScheduleServer, CancelStillQueuedAnswersCancelled) {
  ServerConfig config;
  config.frontend.session.max_pending = 1024;
  ServerHarness harness(config);
  GateGuard gate;
  Client client = connect(harness);
  // The saturate() pattern over the wire: every pool worker pinned by
  // gated interactive work with queued entries to spare, so the Bulk
  // request behind them is still queued when the cancel arrives.
  const std::size_t backlog = 2 * ThreadPool::shared().size() + 6;
  for (std::size_t i = 0; i < backlog; ++i) {
    client.send_line(gate_line(static_cast<int>(i),
                               " id=" + std::to_string(100 + i)));
  }
  client.send_line("random:100:1 Liu 1 priority=bulk id=7");
  client.send_line("cancel id=7");
  client.shutdown_write();
  EXPECT_TRUE(eventually([&] {
    return harness.service().queue_stats().of(Priority::kBulk).cancelled ==
           1;
  })) << "the cancel never reached the queued request";
  gate.open();
  std::size_t answers = 0;
  bool id7_cancelled = false;
  while (const auto line = client.recv_line()) {
    const ResponseLine resp = parse_response_line(*line);
    ++answers;
    if (resp.id && *resp.id == 7) {
      EXPECT_FALSE(resp.ok);
      EXPECT_EQ(resp.code, ErrorCode::kCancelled);
      id7_cancelled = resp.code == ErrorCode::kCancelled;
    }
  }
  EXPECT_EQ(answers, backlog + 1) << "every request answered exactly once";
  EXPECT_TRUE(id7_cancelled);
}

TEST(ScheduleServer, CancelOfUnknownIdAnswersBadRequestAck) {
  for_each_tier({}, [](TierHarness& tier) {
    Client client = tier.connect();
    const ResponseLine ack = client.request("cancel id=404");
    ASSERT_FALSE(ack.ok);
    EXPECT_EQ(ack.code, ErrorCode::kBadRequest);
    EXPECT_FALSE(ack.id.has_value())
        << "late-cancel acks must never duplicate an id on the wire";
  });
}

TEST(ScheduleServer, HalfCloseAnswersEverythingThenEof) {
  for_each_tier({}, [](TierHarness& tier) {
    Client client = tier.connect();
    client.send_line("random:500:1 ParSubtrees 4 id=1");
    client.send_line("random:500:1 ParSubtrees 8 id=2");
    client.send_line("ping");  // unterminated tail exercised separately
    client.shutdown_write();
    std::size_t lines = 0;
    while (client.recv_line()) ++lines;
    EXPECT_EQ(lines, 3u) << "all pending answers flushed before close";
  });
}

TEST(ScheduleServer, UnterminatedFinalLineStillAnswersAtEof) {
  for_each_tier({}, [](TierHarness& tier) {
    Client client = tier.connect();
    // "ping" with no trailing newline, then half-close: the framer's
    // finish() grants it the same grace getline gives the stdin service.
    const std::string bare = "ping";
    ASSERT_EQ(::send(client.fd(), bare.data(), bare.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bare.size()));
    client.shutdown_write();
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, "pong");
    EXPECT_FALSE(client.recv_line().has_value());
  });
}

TEST(ScheduleServer, AbruptDisconnectCancelsAndTheServerSurvives) {
  for_each_tier({}, [](TierHarness& tier) {
    GateGuard gate;
    const std::size_t backlog = 2 * ThreadPool::shared().size() + 6;
    {
      Client doomed = tier.connect();
      for (std::size_t i = 0; i < backlog; ++i) {
        doomed.send_line(gate_line(static_cast<int>(i)));
      }
      for (int i = 0; i < 8; ++i) {
        doomed.send_line("random:100:1 Liu 1 priority=bulk id=" +
                         std::to_string(i));
      }
      doomed.close();  // mid-batch, nothing read: the abrupt path
    }
    // The tier keeps serving other clients…
    Client alive = tier.connect();
    const ResponseLine pong = alive.request("ping");
    EXPECT_EQ(pong.kind, ResponseLine::Kind::kPong);
    // The gate held the backlog while the client vanished; release it
    // once the service has admitted it, so the next request finds a free
    // worker.
    EXPECT_TRUE(
        eventually([&] { return admitted(tier.service()) >= backlog; }));
    gate.open();
    const ResponseLine ok = alive.request("random:100:2 Liu 1 id=1");
    EXPECT_TRUE(ok.ok);
    // …and the harness destructor's stop() verifies the drain: run()
    // returns only once the vanished client's work is all settled
    // (cancelled or computed), so a leak would hang this test.
  });
}

TEST(ScheduleServer, WriteBackpressureDeliversEverythingToASlowReader) {
  ServerConfig config;
  // Tiny: force EPOLLOUT flushing + read pauses.
  config.frontend.session.max_wbuf = 2048;
  config.frontend.session.max_pending = 4096;
  for_each_tier(config, [](TierHarness& tier) {
    Client client = tier.connect();
    // A few hundred cache-hot requests written without reading a single
    // answer: the tier must stop reading when its write buffer fills,
    // resume as we drain, and deliver every answer exactly once.
    constexpr int kRequests = 400;
    for (int i = 0; i < kRequests; ++i) {
      client.send_line("random:200:1 Liu 1 id=" + std::to_string(i));
    }
    client.shutdown_write();
    std::vector<bool> seen(kRequests, false);
    std::size_t answers = 0;
    while (const auto line = client.recv_line()) {
      const ResponseLine resp = parse_response_line(*line);
      ASSERT_TRUE(resp.id.has_value());
      ASSERT_LT(*resp.id, static_cast<std::uint64_t>(kRequests));
      EXPECT_FALSE(seen[static_cast<std::size_t>(*resp.id)]);
      seen[static_cast<std::size_t>(*resp.id)] = true;
      ++answers;
    }
    EXPECT_EQ(answers, static_cast<std::size_t>(kRequests));
  });
}

TEST(ScheduleServer, StopDrainsPendingAnswersBeforeReturning) {
  auto harness = std::make_unique<ServerHarness>();
  GateGuard gate;
  Client client = connect(*harness);
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    client.send_line(gate_line(i, " id=" + std::to_string(i)));
  }
  // Wait until the server has framed and admitted them, then drain
  // while the gate still holds them: every framed request must still be
  // answered. A helper opens the gate 50 ms into the drain.
  ASSERT_TRUE(
      eventually([&] { return admitted(harness->service()) >= kRequests; }));
  std::thread opener([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.open();
  });
  harness->stop();
  opener.join();
  std::size_t answers = 0;
  while (const auto line = client.recv_line()) {
    const ResponseLine resp = parse_response_line(*line);
    EXPECT_TRUE(resp.ok);
    ++answers;
  }
  EXPECT_EQ(answers, static_cast<std::size_t>(kRequests))
      << "graceful drain answers what was accepted before closing";
}

TEST(ScheduleServer, MaxConnsGreetsTheExcessWithQueueFull) {
  ServerConfig config;
  config.frontend.max_conns = 2;
  for_each_tier(config, [](TierHarness& tier) {
    Client first = tier.connect();
    Client second = tier.connect();
    // Poke both so the tier has surely accepted them before the third
    // connection arrives (accept order is deterministic per listen
    // backlog, but the ping round-trips make it explicit).
    (void)first.request("ping");
    (void)second.request("ping");
    Client third = tier.connect();
    const auto line = third.recv_line();
    ASSERT_TRUE(line.has_value());
    const ResponseLine resp = parse_response_line(*line);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, ErrorCode::kQueueFull);
    EXPECT_FALSE(third.recv_line().has_value())
        << "closed after the greeting";
  });
}

// ---------------------------------------------------------------------------
// The session window stays bounded behind an unsettled request, on both
// tiers: reading pauses while max_pending settled answers wait, so a
// client pipelining behind a slow request costs bounded memory and the
// I/O thread stays free for everyone else.
// ---------------------------------------------------------------------------

/// The requests the tier has framed, not counting the `stats` requests
/// that read them, once that count has held still for 100 ms (or after
/// 3 s of change).
std::uint64_t settled_lines(Client& probe) {
  std::uint64_t reads = 0;
  const auto read = [&] {
    ++reads;
    for (const auto& [key, value] : probe.request("stats").stats) {
      if (key == "lines") return value - reads;
    }
    ADD_FAILURE() << "stats line is missing key lines";
    return std::uint64_t{0};
  };
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  std::uint64_t last = read();
  int still = 0;
  while (still < 5 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t now = read();
    still = now == last ? still + 1 : 0;
    last = now;
  }
  return last;
}

/// Pipelines one gated untagged request and then kBacklog cache-hit
/// lines from a helper thread, never reading while the gate is closed;
/// runs `while_gated`, opens the gate, and checks that every answer
/// arrives in submission order.
template <typename WhileGated>
void gated_backlog(TierHarness& tier, WhileGated&& while_gated) {
  constexpr int kBacklog = 100000;
  constexpr int kPs = 8;  // p cycles 1..8: the answers' p proves order
  Client client = tier.connect();
  for (int p = 1; p <= kPs; ++p) {
    ASSERT_TRUE(client.request("random:50:1 Liu " + std::to_string(p)).ok);
  }
  GateGuard gate;
  std::string wire = "random:60:1 TestGate 1\n";
  for (int i = 0; i < kBacklog; ++i) {
    wire += "random:50:1 Liu " + std::to_string(1 + i % kPs) + "\n";
  }
  std::thread sender([&client, &wire] {
    for (std::size_t at = 0; at < wire.size();) {
      const ssize_t n = ::send(client.fd(), wire.data() + at,
                               wire.size() - at, MSG_NOSIGNAL);
      if (n <= 0) return;
      at += static_cast<std::size_t>(n);
    }
  });
  EXPECT_TRUE(eventually([&] { return admitted(tier.service()) >= 1; }));
  while_gated();
  gate.open();
  const auto first = client.recv_line();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(parse_response_line(*first).algo, "TestGate");
  int ok = 0;
  for (int i = 0; i < kBacklog; ++i) {
    const auto line = client.recv_line();
    ASSERT_TRUE(line.has_value()) << "answer " << i << " never arrived";
    const ResponseLine resp = parse_response_line(*line);
    if (resp.ok) {
      ++ok;
      ASSERT_EQ(resp.p, 1 + i % kPs) << "answer " << i << " out of order";
    } else {
      // The router's own window refuses forwards past max_pending.
      ASSERT_EQ(resp.code, ErrorCode::kQueueFull) << resp.message;
    }
  }
  sender.join();
  if (tier.kind() == TierHarness::Kind::kServer) {
    EXPECT_EQ(ok, kBacklog) << "cache hits never fill the server's window";
  }
}

TEST(SessionWindow, ReadingPausesWhileSettledAnswersWaitBehindAGatedOne) {
  ServerConfig config;
  config.frontend.session.max_pending = 8;
  for_each_tier(config, [](TierHarness& tier) {
    gated_backlog(tier, [&] {
      Client probe = tier.connect();
      EXPECT_LT(settled_lines(probe), 2000u)
          << "reading must pause behind the gated request";
    });
  });
}

TEST(SessionWindow, PingAnswersDuringAPipelinedBacklog) {
  ServerConfig config;
  config.frontend.session.max_pending = 8;
  for_each_tier(config, [](TierHarness& tier) {
    gated_backlog(tier, [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Client probe = tier.connect();
      const auto start = std::chrono::steady_clock::now();
      const ResponseLine pong = probe.request("ping");
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start);
      EXPECT_EQ(pong.kind, ResponseLine::Kind::kPong);
      EXPECT_LT(elapsed.count(), 250) << "the backlog held the I/O thread";
    });
  });
}

// ---------------------------------------------------------------------------
// SLO accounting, one rule on both tiers: every answer to a parsed
// schedule request counts under its class and `all`, other errors under
// `all` only, and ping/stats/trace not at all.
// ---------------------------------------------------------------------------

double slo_ratio(const std::string& metrics, const std::string& name,
                 const char* cls) {
  return testing::metric_value(metrics, name + "{class=\"" + cls + "\"}");
}

TEST(SloErrorRatio, ServerCountsEveryAnswerUnderItsOwnClass) {
  ServerConfig config;
  config.frontend.metrics_port = 0;
  ServerHarness harness(config);
  Client client("127.0.0.1", harness.port());
  EXPECT_TRUE(client.request("random:100:1 Liu 1").ok);
  // Two spec failures of an interactive request, untagged and tagged.
  EXPECT_FALSE(client.request("bogus-spec Liu 1 priority=interactive").ok);
  EXPECT_FALSE(
      client.request("bogus-spec Liu 1 priority=interactive id=7").ok);
  EXPECT_FALSE(client.request("not a request ===").ok);  // `all` only
  EXPECT_EQ(client.request("ping").kind, ResponseLine::Kind::kPong);
  const std::string metrics = testing::scrape_metrics(harness.metrics_port());
  const std::string name = "treesched_slo_error_ratio";
  EXPECT_DOUBLE_EQ(slo_ratio(metrics, name, "interactive"), 1.0) << metrics;
  EXPECT_DOUBLE_EQ(slo_ratio(metrics, name, "batch"), 0.0);
  EXPECT_DOUBLE_EQ(slo_ratio(metrics, name, "bulk"), 0.0);
  EXPECT_DOUBLE_EQ(slo_ratio(metrics, name, "all"), 0.75);
}

TEST(SloErrorRatio, RouterCountsItsOwnImmediateErrors) {
  // The only node is a bound port nobody listens on: it never comes up,
  // so every request is answered with the router's own
  // node_unavailable error.
  const int dead = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(dead, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ::getsockname(dead, reinterpret_cast<sockaddr*>(&addr), &len);
  cluster::RouterConfig config;
  config.frontend.metrics_port = 0;
  testing::RouterHarness router(
      {"127.0.0.1:" + std::to_string(ntohs(addr.sin_port))}, config);
  Client client("127.0.0.1", router.port());
  for (const char* line :
       {"random:100:1 Liu 1", "random:100:2 Liu 1 id=1",
        "random:100:3 Liu 1 priority=interactive",
        "random:100:4 Liu 1 priority=interactive id=2",
        "random:100:5 Liu 1"}) {
    EXPECT_EQ(client.request(line).code, ErrorCode::kNodeUnavailable)
        << line;
  }
  EXPECT_FALSE(client.request("not a request ===").ok);  // `all` only
  EXPECT_EQ(client.request("ping").kind, ResponseLine::Kind::kPong);
  const std::string metrics =
      testing::scrape_metrics(router.router().metrics_port());
  const std::string name = "treesched_router_slo_error_ratio";
  EXPECT_DOUBLE_EQ(slo_ratio(metrics, name, "interactive"), 1.0) << metrics;
  EXPECT_DOUBLE_EQ(slo_ratio(metrics, name, "batch"), 1.0);
  EXPECT_DOUBLE_EQ(slo_ratio(metrics, name, "bulk"), 0.0);
  EXPECT_DOUBLE_EQ(slo_ratio(metrics, name, "all"), 1.0);
  ::close(dead);
}

// ---------------------------------------------------------------------------
// The server's stats vocabulary. Both operator views read one registry,
// so the `stats` keys, the /metrics series and the keys that report a
// Prometheus sample are pinned as tables: a rename or a dropped key
// fails here, not silently in a reader that looks keys up by name
// (perfbench reads a missing key as 0).
// ---------------------------------------------------------------------------

/// The server's `stats` keys after a miss, a hit and a v3 batch.
const std::vector<std::string> kServerStatsKeys = {
    "accepted", "batch_requests", "cache_bytes", "cache_entries",
    "cache_evictions", "cache_hits", "cache_misses", "conns", "e2e_count",
    "e2e_p50_us", "e2e_p90_us", "e2e_p99_us", "e2e_window_count", "frames_bad",
    "frames_in", "lines", "net_e2e_count", "net_e2e_p50_us", "net_e2e_p90_us",
    "net_e2e_p99_us", "net_e2e_window_count", "outstanding", "parse_errors",
    "pool_executed", "pool_pending", "pool_submitted", "pool_threads",
    "queue_admitted", "queue_admitted_batch", "queue_admitted_bulk",
    "queue_admitted_interactive", "queue_aged_batch", "queue_aged_bulk",
    "queue_aged_interactive", "queue_cancelled", "queue_cancelled_batch",
    "queue_cancelled_bulk", "queue_cancelled_interactive", "queue_completed",
    "queue_completed_batch", "queue_completed_bulk",
    "queue_completed_interactive", "queue_expired", "queue_expired_batch",
    "queue_expired_bulk", "queue_expired_interactive", "queue_pending",
    "queue_pending_batch", "queue_pending_bulk", "queue_pending_interactive",
    "queue_rejected", "queue_rejected_batch", "queue_rejected_bulk",
    "queue_rejected_interactive", "queue_wait_p99_us_batch",
    "queue_wait_p99_us_bulk", "queue_wait_p99_us_interactive",
    "rejected_conns", "stage_compute_count", "stage_compute_p50_us",
    "stage_compute_p90_us", "stage_compute_p99_us",
    "stage_compute_window_count", "stage_dispatch_count",
    "stage_dispatch_p50_us", "stage_dispatch_p90_us", "stage_dispatch_p99_us",
    "stage_dispatch_window_count", "stage_queue_wait_count",
    "stage_queue_wait_p50_us", "stage_queue_wait_p90_us",
    "stage_queue_wait_p99_us", "stage_queue_wait_window_count",
    "stage_write_stall_count", "stage_write_stall_p50_us",
    "stage_write_stall_p90_us", "stage_write_stall_p99_us",
    "stage_write_stall_window_count", "store_bytes", "store_rejected",
    "store_trees", "submitted", "v3_conns",
};

/// Its /metrics series after the same traffic (see exposition_series).
const std::vector<std::string> kServerSeries = {
    "treesched_algo_compute_seconds_count{algo=\"Liu\"}",
    "treesched_algo_peak_memory_bytes_count{algo=\"Liu\"}",
    "treesched_cache_bytes", "treesched_cache_entries",
    "treesched_cache_evictions_total", "treesched_cache_hits_total",
    "treesched_cache_misses_total", "treesched_net_e2e_seconds_count",
    "treesched_net_e2e_seconds_count{class=\"batch\"}",
    "treesched_net_e2e_seconds_count{class=\"bulk\"}",
    "treesched_net_e2e_seconds_count{class=\"interactive\"}",
    "treesched_pool_executed_total", "treesched_pool_pending",
    "treesched_pool_submitted_total", "treesched_pool_threads",
    "treesched_queue_admitted_total{class=\"batch\"}",
    "treesched_queue_admitted_total{class=\"bulk\"}",
    "treesched_queue_admitted_total{class=\"interactive\"}",
    "treesched_queue_aged_total{class=\"batch\"}",
    "treesched_queue_aged_total{class=\"bulk\"}",
    "treesched_queue_aged_total{class=\"interactive\"}",
    "treesched_queue_cancelled_total{class=\"batch\"}",
    "treesched_queue_cancelled_total{class=\"bulk\"}",
    "treesched_queue_cancelled_total{class=\"interactive\"}",
    "treesched_queue_completed_total{class=\"batch\"}",
    "treesched_queue_completed_total{class=\"bulk\"}",
    "treesched_queue_completed_total{class=\"interactive\"}",
    "treesched_queue_expired_total{class=\"batch\"}",
    "treesched_queue_expired_total{class=\"bulk\"}",
    "treesched_queue_expired_total{class=\"interactive\"}",
    "treesched_queue_pending{class=\"batch\"}",
    "treesched_queue_pending{class=\"bulk\"}",
    "treesched_queue_pending{class=\"interactive\"}",
    "treesched_queue_rejected_total{class=\"batch\"}",
    "treesched_queue_rejected_total{class=\"bulk\"}",
    "treesched_queue_rejected_total{class=\"interactive\"}",
    "treesched_request_e2e_seconds_count",
    "treesched_request_e2e_seconds_count{class=\"batch\"}",
    "treesched_request_e2e_seconds_count{class=\"bulk\"}",
    "treesched_request_e2e_seconds_count{class=\"interactive\"}",
    "treesched_server_accepted_total", "treesched_server_batch_requests_total",
    "treesched_server_connections", "treesched_server_frames_bad_total",
    "treesched_server_frames_total", "treesched_server_outstanding",
    "treesched_server_parse_errors_total",
    "treesched_server_rejected_conns_total", "treesched_server_requests_total",
    "treesched_server_submitted_total", "treesched_server_v3_conns_total",
    "treesched_slo_error_ratio{class=\"all\"}",
    "treesched_slo_error_ratio{class=\"batch\"}",
    "treesched_slo_error_ratio{class=\"bulk\"}",
    "treesched_slo_error_ratio{class=\"interactive\"}",
    "treesched_stage_seconds_count{stage=\"compute\",class=\"all\"}",
    "treesched_stage_seconds_count{stage=\"compute\",class=\"batch\"}",
    "treesched_stage_seconds_count{stage=\"compute\",class=\"bulk\"}",
    "treesched_stage_seconds_count{stage=\"compute\",class=\"interactive\"}",
    "treesched_stage_seconds_count{stage=\"dispatch\",class=\"all\"}",
    "treesched_stage_seconds_count{stage=\"queue_wait\",class=\"all\"}",
    "treesched_stage_seconds_count{stage=\"queue_wait\",class=\"batch\"}",
    "treesched_stage_seconds_count{stage=\"queue_wait\",class=\"bulk\"}",
    "treesched_stage_seconds_count{stage=\"queue_wait\",class=\"interactive\"}",
    "treesched_stage_seconds_count{stage=\"write_stall\",class=\"all\"}",
    "treesched_stage_seconds_count{stage=\"write_stall\",class=\"batch\"}",
    "treesched_stage_seconds_count{stage=\"write_stall\",class=\"bulk\"}",
    "treesched_stage_seconds_count{stage=\"write_stall\",class=\"interactive\"}",
    "treesched_store_bytes", "treesched_store_rejected_total",
    "treesched_store_trees",
};

/// The node keys perfbench reads.
const std::vector<std::string> kPerfbenchNodeKeys = {
    "cache_hits",      "cache_misses",
    "cache_evictions", "store_trees",
    "store_bytes",     "queue_rejected",
    "queue_wait_p99_us_interactive", "queue_wait_p99_us_bulk"};

/// Every server stats key that has a Prometheus twin, with the twin.
std::vector<testing::Twin> server_twins() {
  std::vector<testing::Twin> twins = {
      {"cache_hits", "treesched_cache_hits_total"},
      {"cache_misses", "treesched_cache_misses_total"},
      {"cache_evictions", "treesched_cache_evictions_total"},
      {"cache_entries", "treesched_cache_entries"},
      {"cache_bytes", "treesched_cache_bytes"},
      {"store_trees", "treesched_store_trees"},
      {"store_bytes", "treesched_store_bytes"},
      {"store_rejected", "treesched_store_rejected_total"},
      {"pool_threads", "treesched_pool_threads"},
      {"pool_submitted", "treesched_pool_submitted_total"},
      {"pool_executed", "treesched_pool_executed_total"},
      {"pool_pending", "treesched_pool_pending"},
      {"conns", "treesched_server_connections"},
      {"accepted", "treesched_server_accepted_total"},
      {"rejected_conns", "treesched_server_rejected_conns_total"},
      {"lines", "treesched_server_requests_total"},
      {"submitted", "treesched_server_submitted_total"},
      {"outstanding", "treesched_server_outstanding"},
      {"v3_conns", "treesched_server_v3_conns_total"},
      {"frames_in", "treesched_server_frames_total"},
      {"frames_bad", "treesched_server_frames_bad_total"},
      {"batch_requests", "treesched_server_batch_requests_total"},
      {"parse_errors", "treesched_server_parse_errors_total"},
      {"e2e_count", "treesched_request_e2e_seconds_count"},
      {"net_e2e_count", "treesched_net_e2e_seconds_count"},
  };
  for (const char* stage :
       {"queue_wait", "dispatch", "compute", "write_stall"}) {
    twins.push_back({std::string("stage_") + stage + "_count",
                     std::string("treesched_stage_seconds_count{stage=\"") +
                         stage + "\",class=\"all\"}"});
  }
  for (const char* cls : {"interactive", "batch", "bulk"}) {
    const std::string label = std::string("{class=\"") + cls + "\"}";
    for (const char* counter : {"admitted", "rejected", "completed", "expired",
                                "cancelled", "aged"}) {
      twins.push_back({std::string("queue_") + counter + "_" + cls,
                       std::string("treesched_queue_") + counter + "_total" +
                           label});
    }
    twins.push_back({std::string("queue_pending_") + cls,
                     "treesched_queue_pending" + label});
  }
  return twins;
}

/// A miss, a hit and a v3 batch frame, each client gone when it returns.
void miss_hit_and_batch(std::uint16_t port) {
  Client text("127.0.0.1", port);
  ASSERT_TRUE(text.request("random:200:1 Liu 1").ok);
  ASSERT_TRUE(text.request("random:200:1 Liu 1").cache_hit);
  Client binary("127.0.0.1", port, net::Protocol::kV3);
  binary.send_batch({"random:200:1 Liu 1 id=1", "random:200:2 Liu 1 id=2"});
  for (int i = 0; i < 2; ++i) {
    const std::optional<ResponseLine> answer = binary.recv_response();
    ASSERT_TRUE(answer.has_value() && answer->ok);
  }
}

// ---------------------------------------------------------------------------
// The client-facing settings both tiers share: one flag reader, one
// set of checks.
// ---------------------------------------------------------------------------

/// parse_frontend_flags over `flags` (argv without the program name).
net::FrontendConfig frontend_flags(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "schedule_tier");
  std::vector<char*> argv;
  for (std::string& flag : flags) argv.push_back(flag.data());
  const CliArgs args(static_cast<int>(argv.size()), argv.data());
  net::FrontendConfig config = net::parse_frontend_flags(args);
  args.reject_unknown();
  return config;
}

TEST(FrontendFlags, DefaultsAreTheConfigDefaults) {
  const net::FrontendConfig parsed = frontend_flags({});
  const net::FrontendConfig plain;
  EXPECT_EQ(parsed.listen.port, 0);
  EXPECT_EQ(parsed.listen.bind, "127.0.0.1");
  EXPECT_EQ(parsed.max_conns, 256u);
  EXPECT_EQ(parsed.session.max_pending, 64u);
  EXPECT_EQ(parsed.session.max_wbuf, 256u << 10);
  EXPECT_EQ(parsed.session.max_line, plain.session.max_line);
  EXPECT_EQ(parsed.session.max_frame, 1024u << 10);
  EXPECT_EQ(parsed.session.trace_dir, "");
  EXPECT_EQ(parsed.metrics_port, -1);
  EXPECT_EQ(parsed.metrics_bind, "127.0.0.1");
  EXPECT_EQ(parsed.log_json, "");
  EXPECT_EQ(parsed.drain_timeout_ms, 0.0);
  // The binaries drain on SIGTERM/SIGINT; in-process tiers do not.
  EXPECT_TRUE(parsed.handle_signals);
  EXPECT_FALSE(plain.handle_signals);
}

TEST(FrontendFlags, EachSharedFlagSetsItsField) {
  const net::FrontendConfig c = frontend_flags(
      {"--port", "3713", "--bind", "0.0.0.0", "--max-conns", "7",
       "--max-pending", "9", "--max-wbuf-kb", "3", "--max-frame-kb", "2",
       "--metrics-port", "0", "--trace-dir", "traces", "--log-json", "-",
       "--drain-timeout-ms", "250"});
  EXPECT_EQ(c.listen.port, 3713);
  EXPECT_EQ(c.listen.bind, "0.0.0.0");
  EXPECT_EQ(c.max_conns, 7u);
  EXPECT_EQ(c.session.max_pending, 9u);
  EXPECT_EQ(c.session.max_wbuf, 3u << 10);
  EXPECT_EQ(c.session.max_frame, 2u << 10);
  EXPECT_EQ(c.metrics_port, 0);
  EXPECT_EQ(c.session.trace_dir, "traces");
  EXPECT_EQ(c.log_json, "-");
  EXPECT_EQ(c.drain_timeout_ms, 250.0);
  // A tier's own flags are not the shared reader's to accept; the spec
  // flags are the server's own (a router never resolves a spec).
  for (const char* own : {"--unix", "--nodes", "--tree-dir",
                          "--max-spec-nodes", "--max-spec-bytes"}) {
    EXPECT_THROW(frontend_flags({own, "1"}), std::invalid_argument) << own;
  }
}

TEST(FrontendConfig, BothTiersRefuseAZeroPendingWindow) {
  // A window of 0 would answer every schedule request queue_full. One
  // rule, checked where Frontend takes the config: the server refuses
  // it exactly as the router does.
  SchedulingService service;
  ServerConfig server;
  server.frontend.session.max_pending = 0;
  cluster::RouterConfig router;
  router.nodes = {"127.0.0.1:1"};
  router.frontend = server.frontend;
  EXPECT_THROW(Server(service, server), std::invalid_argument);
  EXPECT_THROW(cluster::Router{router}, std::invalid_argument);
}

TEST(StatsVocabulary, ServerViewsMatchTheGoldensAndAgree) {
  ServerConfig config;
  config.frontend.metrics_port = 0;
  ServerHarness harness(config);
  miss_hit_and_batch(harness.port());
  Client probe = connect(harness);
  const std::vector<std::string> keys =
      testing::stats_keys(probe.request("stats"));
  testing::expect_same_set(keys, kServerStatsKeys);
  for (const std::string& key : kPerfbenchNodeKeys) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end())
        << "perfbench reads " << key;
  }
  testing::expect_same_set(
      testing::exposition_series(
          testing::scrape_metrics(harness.metrics_port())),
      kServerSeries);
  testing::expect_twins_agree(probe, harness.metrics_port(), server_twins());
}

}  // namespace
}  // namespace treesched
