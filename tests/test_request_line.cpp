// The text wire grammar (service/request_line.hpp), protocol v2, that
// schedule_server, schedule_router and schedule_service all speak:
// positional fields, the named priority=/deadline_ms=/id= fields,
// cancel lines, response formatting/parsing round-trips, the
// response writer's bytes against an ostringstream oracle, and — the
// regressions this file pins — unknown request fields and unknown error
// codes rejected with an error naming them, never silently accepted.

#include "service/request_line.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

namespace treesched {
namespace {

TEST(RequestLine, PositionalFieldsParse) {
  const RequestLine r = parse_request_line("random:500:1 ParSubtrees 8");
  EXPECT_EQ(r.tree_spec, "random:500:1");
  EXPECT_EQ(r.algo, "ParSubtrees");
  EXPECT_EQ(r.p, 8);
  EXPECT_EQ(r.memory_cap, 0u);
  EXPECT_EQ(r.priority, Priority::kBatch) << "wire default is batch";
  EXPECT_EQ(r.deadline_ms, 0.0);
  EXPECT_EQ(r.kind, RequestLine::Kind::kSchedule);
  EXPECT_FALSE(r.id.has_value()) << "untagged by default";
}

TEST(RequestLine, OptionalMemoryCapParses) {
  const RequestLine r =
      parse_request_line("grid:8:2 MemoryBounded 4 123456");
  EXPECT_EQ(r.memory_cap, 123456u);
}

TEST(RequestLine, NamedFieldsParse) {
  const RequestLine r = parse_request_line(
      "file:a.tree Liu 1 77 priority=interactive deadline_ms=12.5");
  EXPECT_EQ(r.memory_cap, 77u);
  EXPECT_EQ(r.priority, Priority::kInteractive);
  EXPECT_DOUBLE_EQ(r.deadline_ms, 12.5);
}

TEST(RequestLine, NamedFieldsAreOrderInsensitive) {
  const RequestLine r = parse_request_line(
      "random:10:1 ParInnerFirst 2 deadline_ms=5 priority=bulk");
  EXPECT_EQ(r.priority, Priority::kBulk);
  EXPECT_DOUBLE_EQ(r.deadline_ms, 5.0);
}

TEST(RequestLine, IdTagParses) {
  const RequestLine r =
      parse_request_line("random:10:1 ParSubtrees 2 id=42 priority=bulk");
  ASSERT_TRUE(r.id.has_value());
  EXPECT_EQ(*r.id, 42u);
  EXPECT_EQ(r.priority, Priority::kBulk);
  // Bad ids are rejected by name.
  EXPECT_THROW((void)parse_request_line("random:10:1 ParSubtrees 2 id=-3"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("random:10:1 ParSubtrees 2 id=abc"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)parse_request_line("random:10:1 ParSubtrees 2 id=1 id=2"),
      std::invalid_argument);
  // Overflow is a parse error too (std::invalid_argument, never a leaked
  // std::out_of_range — the documented contract).
  EXPECT_THROW((void)parse_request_line(
                   "random:10:1 ParSubtrees 2 id=18446744073709551616"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_line(
                   "random:10:1 Liu 1 99999999999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_response_line(
                   "ok peak_memory=18446744073709551616"),
               std::invalid_argument);
  // Int-typed response fields reject (never truncate) out-of-range
  // values: p=2^32+1 must not come back as p=1.
  EXPECT_THROW((void)parse_response_line("ok p=4294967297"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_response_line("ok n=4294967296"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_response_line("ok tree=nothex"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_response_line("ok tree=-1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_response_line("ok tree=0x12"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_response_line(
                   "error id=1 id=2 code=queue_full boom"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_response_line("ok makespan=fast"),
               std::invalid_argument);
}

TEST(RequestLine, CancelLinesParse) {
  const RequestLine r = parse_request_line("cancel id=7");
  EXPECT_EQ(r.kind, RequestLine::Kind::kCancel);
  ASSERT_TRUE(r.id.has_value());
  EXPECT_EQ(*r.id, 7u);
  // A cancel must name exactly one id and nothing else.
  EXPECT_THROW((void)parse_request_line("cancel"), std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("cancel 7"), std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("cancel id=7 id=8"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("cancel id=7 priority=bulk"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("cancel id=nope"),
               std::invalid_argument);
}

TEST(RequestLine, UnknownFieldIsRejectedByName) {
  try {
    (void)parse_request_line("random:10:1 ParSubtrees 2 frobnicate=7");
    FAIL() << "unknown field accepted silently";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown request field \"frobnicate\""),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("priority"), std::string::npos)
        << "the error should list the known fields";
  }
}

TEST(RequestLine, MalformedLinesAreRejected) {
  // Too few positional fields.
  EXPECT_THROW((void)parse_request_line("random:10:1 ParSubtrees"),
               std::invalid_argument);
  // Negative / non-numeric caps (istream would happily wrap "-5").
  EXPECT_THROW((void)parse_request_line("random:10:1 ParSubtrees 2 -5"),
               std::invalid_argument);
  // A stray positional token after the cap.
  EXPECT_THROW((void)parse_request_line("random:10:1 ParSubtrees 2 7 9"),
               std::invalid_argument);
  // A positional token after a named field.
  EXPECT_THROW(
      (void)parse_request_line("random:10:1 ParSubtrees 2 priority=bulk 9"),
      std::invalid_argument);
  // A repeated named field (last-one-wins would hide a typo'd intent).
  EXPECT_THROW((void)parse_request_line(
                   "random:10:1 Liu 1 deadline_ms=5000 deadline_ms=50"),
               std::invalid_argument);
  // Bad values for the named fields.
  EXPECT_THROW(
      (void)parse_request_line("random:10:1 ParSubtrees 2 priority=vip"),
      std::invalid_argument);
  EXPECT_THROW(
      (void)parse_request_line("random:10:1 ParSubtrees 2 deadline_ms=-3"),
      std::invalid_argument);
  EXPECT_THROW(
      (void)parse_request_line("random:10:1 ParSubtrees 2 deadline_ms=soon"),
      std::invalid_argument);
  // Every field is a whole token and numbers are decimal: <p> does not
  // stop mid-token ("3id=4" is not p=3 plus a tag), and deadline_ms
  // takes neither a hex float nor a leading '+'.
  EXPECT_THROW((void)parse_request_line("t Liu 1 deadline_ms=0x10"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("t Liu 3priority=bulk"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("t Liu 3id=4"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("t Liu 1 deadline_ms=+5"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Protocol-v2 response lines.
// ---------------------------------------------------------------------------

TEST(ResponseLine, OkLineRoundTrips) {
  ResponseLine resp;
  resp.ok = true;
  resp.id = 42;
  resp.tree_hash = 0x8c621571e53e1323ULL;
  resp.n = 200;
  resp.algo = "ParSubtrees";
  resp.p = 8;
  resp.makespan = 1624.2518808123923;
  resp.peak_memory = 1636;
  resp.cache_hit = true;
  resp.priority = Priority::kInteractive;

  const std::string line = format_response_line(resp);
  const ResponseLine back = parse_response_line(line);
  EXPECT_TRUE(back.ok);
  ASSERT_TRUE(back.id.has_value());
  EXPECT_EQ(*back.id, 42u);
  EXPECT_EQ(back.tree_hash, resp.tree_hash);
  EXPECT_EQ(back.n, 200);
  EXPECT_EQ(back.algo, "ParSubtrees");
  EXPECT_EQ(back.p, 8);
  EXPECT_DOUBLE_EQ(back.makespan, resp.makespan)
      << "setprecision(17) round-trips the double exactly";
  EXPECT_EQ(back.peak_memory, 1636u);
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(back.priority, Priority::kInteractive);
}

TEST(ResponseLine, ErrorLineRoundTripsEveryCode) {
  for (const ErrorCode code :
       {ErrorCode::kUnknownAlgorithm, ErrorCode::kInvalidResources,
        ErrorCode::kDeadlineExpired, ErrorCode::kQueueFull,
        ErrorCode::kCancelled, ErrorCode::kSchedulerFailure,
        ErrorCode::kStoreFull, ErrorCode::kBadRequest}) {
    ResponseLine resp;
    resp.ok = false;
    resp.id = 9;
    resp.code = code;
    resp.message = "something went wrong here";
    const ResponseLine back = parse_response_line(format_response_line(resp));
    EXPECT_FALSE(back.ok);
    EXPECT_EQ(back.code, code) << to_string(code);
    ASSERT_TRUE(back.id.has_value());
    EXPECT_EQ(*back.id, 9u);
    EXPECT_EQ(back.message, "something went wrong here");
    // And the code spelling itself round-trips through the taxonomy.
    EXPECT_EQ(parse_error_code(to_string(code)), code);
  }
  // Untagged error lines stay untagged.
  const ResponseLine untagged =
      parse_response_line("error code=queue_full queue full: 8 pending");
  EXPECT_FALSE(untagged.id.has_value());
  EXPECT_EQ(untagged.code, ErrorCode::kQueueFull);
}

TEST(ResponseLine, UnknownCodeIsRejectedByName) {
  try {
    (void)parse_response_line("error id=3 code=frobnicated boom");
    FAIL() << "unknown error code accepted silently";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown error code \"frobnicated\""),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(parse_error_code("frobnicated").has_value());
}

TEST(ResponseLine, MalformedResponsesAreRejected) {
  // No verb / unknown verb.
  EXPECT_THROW((void)parse_response_line(""), std::invalid_argument);
  EXPECT_THROW((void)parse_response_line("maybe tree=1"),
               std::invalid_argument);
  // Error line without a code.
  EXPECT_THROW((void)parse_response_line("error something broke"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_response_line("error id=3 something broke"),
               std::invalid_argument);
  // Unknown / duplicate ok fields.
  EXPECT_THROW((void)parse_response_line("ok frob=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_response_line("ok p=2 p=3"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_response_line("ok cache=warm"),
               std::invalid_argument);
  // Truncated ok lines must not parse into default-zero measurements.
  EXPECT_THROW((void)parse_response_line("ok"), std::invalid_argument);
  EXPECT_THROW((void)parse_response_line("ok id=3 tree=ff n=2"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The response writer, byte for byte against a stream oracle.
// ---------------------------------------------------------------------------

/// The v2 response grammar spelled with ostringstream and
/// setprecision(17): a test-only reference. format_response_line (built
/// on std::to_chars) must produce exactly its bytes.
std::string oracle_format(const ResponseLine& resp) {
  std::ostringstream os;
  os << std::setprecision(17);
  if (resp.kind == ResponseLine::Kind::kPong) {
    os << "pong";
    if (resp.id) os << " id=" << *resp.id;
    return os.str();
  }
  if (resp.kind == ResponseLine::Kind::kStats ||
      resp.kind == ResponseLine::Kind::kTrace) {
    os << (resp.kind == ResponseLine::Kind::kStats ? "stats" : "trace");
    if (resp.id) os << " id=" << *resp.id;
    for (const auto& [key, value] : resp.stats) {
      os << " " << key << "=" << value;
    }
    return os.str();
  }
  if (resp.ok) {
    os << "ok";
    if (resp.id) os << " id=" << *resp.id;
    os << " tree=" << std::hex << resp.tree_hash << std::dec
       << " n=" << resp.n << " algo=" << resp.algo << " p=" << resp.p
       << " makespan=" << resp.makespan
       << " peak_memory=" << resp.peak_memory
       << " cache=" << (resp.cache_hit ? "hit" : "miss")
       << " priority=" << to_string(resp.priority);
    return os.str();
  }
  os << "error";
  if (resp.id) os << " id=" << *resp.id;
  os << " code=" << to_string(resp.code);
  if (!resp.message.empty()) {
    std::string flat = resp.message;
    for (char& c : flat) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    os << " " << flat;
  }
  return os.str();
}

ResponseLine ok_line(double makespan) {
  ResponseLine resp;
  resp.ok = true;
  resp.tree_hash = 0x8c621571e53e1323ULL;
  resp.n = 200;
  resp.algo = "ParSubtrees";
  resp.p = 8;
  resp.makespan = makespan;
  resp.peak_memory = 1636;
  return resp;
}

TEST(ResponseWriter, MakespansMatchTheStreamOracle) {
  constexpr double kTwo53 = 9007199254740992.0;
  const double makespans[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      2.2250738585072009e-308,  // largest subnormal
      1e-310,
      std::numeric_limits<double>::min(),
      0.1,
      kTwo53 - 1,
      kTwo53,
      kTwo53 + 2,  // 2^53 + 1 is not a double; its neighbours are
      std::nextafter(kTwo53, 0.0),
      1e17,
      1e-300,
      1e300,
      std::numeric_limits<double>::max(),
      1624.2518808123923,
      123456.5,
      1e16,
      1e-5,
      std::numeric_limits<double>::infinity(),
  };
  for (const double makespan : makespans) {
    ResponseLine resp = ok_line(makespan);
    EXPECT_EQ(format_response_line(resp), oracle_format(resp)) << makespan;
    resp.id = 42;
    EXPECT_EQ(format_response_line(resp), oracle_format(resp)) << makespan;
  }
}

TEST(ResponseWriter, EveryPriorityCacheStateAndTagMatch) {
  for (const Priority priority :
       {Priority::kInteractive, Priority::kBatch, Priority::kBulk}) {
    for (const bool hit : {true, false}) {
      for (const std::optional<std::uint64_t> id :
           {std::optional<std::uint64_t>{}, std::optional<std::uint64_t>{0},
            std::optional<std::uint64_t>{
                std::numeric_limits<std::uint64_t>::max()}}) {
        ResponseLine resp = ok_line(2.5);
        resp.priority = priority;
        resp.cache_hit = hit;
        resp.id = id;
        EXPECT_EQ(format_response_line(resp), oracle_format(resp));
      }
    }
  }
}

TEST(ResponseWriter, SeededSweepMatchesTheStreamOracle) {
  std::mt19937_64 rng(20261017);
  const char* algos[] = {"ParSubtrees", "ParInnerFirst", "Liu", "x"};
  for (int i = 0; i < 20000; ++i) {
    ResponseLine resp;
    resp.ok = true;
    // Half raw bit patterns (every class: subnormal, inf, nan, huge), half
    // makespan-like magnitudes.
    if (i % 2 == 0) {
      const std::uint64_t bits = rng();
      std::memcpy(&resp.makespan, &bits, sizeof bits);
    } else {
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      const int exponent = static_cast<int>(rng() % 40) - 20;
      resp.makespan = unit(rng) * std::pow(10.0, exponent);
    }
    if (rng() % 2) resp.id = rng() >> (rng() % 64);
    resp.tree_hash = rng() >> (rng() % 64);
    resp.n = static_cast<NodeId>(rng());
    resp.algo = algos[rng() % std::size(algos)];
    resp.p = static_cast<int>(rng());
    resp.peak_memory = rng() >> (rng() % 64);
    resp.cache_hit = rng() % 2 == 0;
    resp.priority = static_cast<Priority>(rng() % 3);
    ASSERT_EQ(format_response_line(resp), oracle_format(resp)) << i;
  }
}

TEST(ResponseWriter, ErrorLinesMatchForEveryCode) {
  const std::string messages[] = {
      "",
      "something went wrong here",
      "multi\nline what()",
      "carriage\rreturn",
      "\r\nleading and trailing\n",
      "request line of 70000 bytes exceeds the 65536-byte limit",
  };
  for (int c = 0; c <= static_cast<int>(ErrorCode::kNodeUnavailable); ++c) {
    for (const std::string& message : messages) {
      for (const bool tagged : {false, true}) {
        ResponseLine resp;
        resp.ok = false;
        resp.code = static_cast<ErrorCode>(c);
        resp.message = message;
        if (tagged) resp.id = 9;
        EXPECT_EQ(format_response_line(resp), oracle_format(resp))
            << to_string(resp.code) << " / " << message;
      }
    }
  }
}

TEST(ResponseWriter, PongStatsAndTraceLinesMatch) {
  for (const ResponseLine::Kind kind :
       {ResponseLine::Kind::kPong, ResponseLine::Kind::kStats,
        ResponseLine::Kind::kTrace}) {
    for (const bool tagged : {false, true}) {
      for (const bool empty : {false, true}) {
        ResponseLine resp;
        resp.kind = kind;
        resp.ok = true;
        if (tagged) resp.id = 3;
        if (!empty && kind != ResponseLine::Kind::kPong) {
          resp.stats = {{"conns", 2},
                        {"cache_hits", 41},
                        {"big", std::numeric_limits<std::uint64_t>::max()},
                        {"zero", 0}};
        }
        EXPECT_EQ(format_response_line(resp), oracle_format(resp));
      }
    }
  }
}

TEST(ResponseWriter, AppendLeavesThePrefixUntouched) {
  // The connections append answers to a write buffer that already holds
  // earlier lines: the newline flattening must stay inside the new line.
  std::string wbuf = "ok earlier\n\r";
  ResponseLine resp;
  resp.ok = false;
  resp.code = ErrorCode::kBadRequest;
  resp.message = "two\nlines";
  append_response_line(wbuf, resp);
  EXPECT_EQ(wbuf, "ok earlier\n\r" + oracle_format(resp));
}

// ---------------------------------------------------------------------------
// ping / stats control lines (the health-probe additions).
// ---------------------------------------------------------------------------

TEST(ControlLines, PingParsesWithAndWithoutTag) {
  const RequestLine bare = parse_request_line("ping");
  EXPECT_EQ(bare.kind, RequestLine::Kind::kPing);
  EXPECT_FALSE(bare.id.has_value());

  const RequestLine tagged = parse_request_line("ping id=42");
  EXPECT_EQ(tagged.kind, RequestLine::Kind::kPing);
  ASSERT_TRUE(tagged.id.has_value());
  EXPECT_EQ(*tagged.id, 42u);

  EXPECT_THROW((void)parse_request_line("ping hard"), std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("ping id=1 id=2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("ping id=-3"), std::invalid_argument);
}

TEST(ControlLines, StatsParsesWithAndWithoutTag) {
  const RequestLine bare = parse_request_line("stats");
  EXPECT_EQ(bare.kind, RequestLine::Kind::kStats);
  const RequestLine tagged = parse_request_line("stats id=9");
  ASSERT_TRUE(tagged.id.has_value());
  EXPECT_EQ(*tagged.id, 9u);
  EXPECT_THROW((void)parse_request_line("stats now"), std::invalid_argument);
}

TEST(ControlLines, PongRoundTrips) {
  ResponseLine pong;
  pong.kind = ResponseLine::Kind::kPong;
  pong.ok = true;
  EXPECT_EQ(format_response_line(pong), "pong");
  pong.id = 7;
  const std::string line = format_response_line(pong);
  EXPECT_EQ(line, "pong id=7");
  const ResponseLine back = parse_response_line(line);
  EXPECT_EQ(back.kind, ResponseLine::Kind::kPong);
  ASSERT_TRUE(back.id.has_value());
  EXPECT_EQ(*back.id, 7u);
  EXPECT_THROW((void)parse_response_line("pong id=1 id=2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_response_line("pong extra"),
               std::invalid_argument);
}

TEST(ControlLines, StatsRoundTripsFreeFormCounters) {
  ResponseLine stats;
  stats.kind = ResponseLine::Kind::kStats;
  stats.ok = true;
  stats.id = 3;
  stats.stats = {{"conns", 2}, {"cache_hits", 41}, {"brand_new_counter", 0}};
  const std::string line = format_response_line(stats);
  EXPECT_EQ(line, "stats id=3 conns=2 cache_hits=41 brand_new_counter=0");
  const ResponseLine back = parse_response_line(line);
  EXPECT_EQ(back.kind, ResponseLine::Kind::kStats);
  ASSERT_TRUE(back.id.has_value());
  EXPECT_EQ(*back.id, 3u);
  ASSERT_EQ(back.stats.size(), 3u)
      << "unknown keys must parse (servers grow counters)";
  EXPECT_EQ(back.stats[0].first, "conns");
  EXPECT_EQ(back.stats[0].second, 2u);
  EXPECT_EQ(back.stats[2].first, "brand_new_counter");
  // Values must still be integers; truncation fails loudly.
  EXPECT_THROW((void)parse_response_line("stats conns=many"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_response_line("stats conns=1 conns=2"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_response_line("stats conns"),
               std::invalid_argument);
}

TEST(ControlLines, TraceParsesActionsAndDump) {
  const RequestLine start = parse_request_line("trace start");
  EXPECT_EQ(start.kind, RequestLine::Kind::kTrace);
  EXPECT_EQ(start.trace_action, "start");
  EXPECT_TRUE(start.trace_path.empty());
  EXPECT_FALSE(start.id.has_value());

  const RequestLine stop = parse_request_line("trace stop id=4");
  EXPECT_EQ(stop.kind, RequestLine::Kind::kTrace);
  EXPECT_EQ(stop.trace_action, "stop");
  ASSERT_TRUE(stop.id.has_value());
  EXPECT_EQ(*stop.id, 4u);

  const RequestLine status = parse_request_line("trace status");
  EXPECT_EQ(status.trace_action, "status");

  const RequestLine dump = parse_request_line("trace dump=/tmp/x.json id=2");
  EXPECT_EQ(dump.kind, RequestLine::Kind::kTrace);
  EXPECT_EQ(dump.trace_action, "dump");
  EXPECT_EQ(dump.trace_path, "/tmp/x.json");
  ASSERT_TRUE(dump.id.has_value());
  EXPECT_EQ(*dump.id, 2u);
}

TEST(ControlLines, TraceRejectsMalformedLines) {
  // A bare `trace` has no action; unknown actions are named errors, not
  // schedule lines in disguise.
  EXPECT_THROW((void)parse_request_line("trace"), std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("trace restart"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("trace start stop"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("trace dump="), std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("trace dump=/a dump=/b"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("trace start dump=/a"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("trace start trailing"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("trace start id=1 id=2"),
               std::invalid_argument);
}

TEST(ControlLines, TraceRoundTripsStatsShapedReplies) {
  ResponseLine trace;
  trace.kind = ResponseLine::Kind::kTrace;
  trace.ok = true;
  trace.id = 5;
  trace.stats = {{"enabled", 1}, {"spans", 42}, {"dropped", 0}};
  const std::string line = format_response_line(trace);
  EXPECT_EQ(line, "trace id=5 enabled=1 spans=42 dropped=0");
  const ResponseLine back = parse_response_line(line);
  EXPECT_EQ(back.kind, ResponseLine::Kind::kTrace)
      << "a trace reply must not come back as stats";
  ASSERT_TRUE(back.id.has_value());
  EXPECT_EQ(*back.id, 5u);
  ASSERT_EQ(back.stats.size(), 3u);
  EXPECT_EQ(back.stats[1].first, "spans");
  EXPECT_EQ(back.stats[1].second, 42u);
  EXPECT_THROW((void)parse_response_line("trace spans=lots"),
               std::invalid_argument);
}

TEST(ControlLines, ScheduleResponsesKeepKindSchedule) {
  const ResponseLine err =
      parse_response_line("error code=queue_full window full");
  EXPECT_EQ(err.kind, ResponseLine::Kind::kSchedule);
  EXPECT_FALSE(err.ok);
}

}  // namespace
}  // namespace treesched
