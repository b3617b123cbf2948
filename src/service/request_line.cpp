#include "service/request_line.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "service/request_view.hpp"

namespace treesched {

namespace {

std::uint64_t parse_uint_field(const std::string& key,
                               const std::string& value) {
  // Parsed from the token, not extracted as an unsigned directly —
  // istream extraction would wrap "-5" into a huge value without
  // setting failbit.
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(key + " \"" + value +
                                "\" is not a non-negative integer");
  }
  try {
    return std::stoull(value);
  } catch (const std::out_of_range&) {
    // The documented contract is std::invalid_argument for every parse
    // failure; overflow must not leak std::out_of_range past it.
    throw std::invalid_argument(key + " \"" + value +
                                "\" does not fit 64 bits");
  }
}

/// parse_uint_field plus an upper bound — int-typed response fields must
/// reject out-of-range values, not truncate them through a cast.
std::uint64_t parse_bounded_field(const std::string& key,
                                  const std::string& value,
                                  std::uint64_t max) {
  const std::uint64_t parsed = parse_uint_field(key, value);
  if (parsed > max) {
    throw std::invalid_argument(key + " \"" + value + "\" exceeds " +
                                std::to_string(max));
  }
  return parsed;
}

template <class Int>
void append_int(std::string& out, Int value, int base = 10) {
  char buf[24];  // a 64-bit value in decimal, sign included
  const auto res = std::to_chars(buf, buf + sizeof buf, value, base);
  out.append(buf, res.ptr);
}

}  // namespace

RequestLine parse_request_line(const std::string& line) {
  RequestView view;
  std::string error;
  if (!parse_request_view(line, view, error)) {
    throw std::invalid_argument(error);
  }
  RequestLine out;
  out.kind = view.kind;
  out.id = view.id;
  out.tree_spec = view.tree_spec;
  out.algo = view.algo;
  out.p = view.p;
  out.memory_cap = view.memory_cap;
  out.priority = view.priority;
  out.deadline_ms = view.deadline_ms;
  out.trace_action = view.trace_action;
  out.trace_path = view.trace_path;
  return out;
}

void append_response_line(std::string& out, const ResponseLine& resp) {
  const auto append_id = [&] {
    if (!resp.id) return;
    out += " id=";
    append_int(out, *resp.id);
  };
  if (resp.kind == ResponseLine::Kind::kPong) {
    out += "pong";
    append_id();
    return;
  }
  if (resp.kind == ResponseLine::Kind::kStats ||
      resp.kind == ResponseLine::Kind::kTrace) {
    out += resp.kind == ResponseLine::Kind::kStats ? "stats" : "trace";
    append_id();
    for (const auto& [key, value] : resp.stats) {
      out += ' ';
      out += key;
      out += '=';
      append_int(out, value);
    }
    return;
  }
  if (resp.ok) {
    out += "ok";
    append_id();
    out += " tree=";
    append_int(out, resp.tree_hash, 16);
    out += " n=";
    append_int(out, resp.n);
    out += " algo=";
    out += resp.algo;
    out += " p=";
    append_int(out, resp.p);
    out += " makespan=";
    // Full double fidelity: the line is machine-read. %.17g round-trips
    // every double, and general/17 is byte-identical to it.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, resp.makespan,
                                   std::chars_format::general, 17);
    out.append(buf, res.ptr);
    out += " peak_memory=";
    append_int(out, resp.peak_memory);
    out += resp.cache_hit ? " cache=hit priority=" : " cache=miss priority=";
    out += to_string(resp.priority);
    return;
  }
  out += "error";
  append_id();
  out += " code=";
  out += to_string(resp.code);
  if (!resp.message.empty()) {
    // One response = one physical line: a message carrying a newline
    // (a multi-line what() from some scheduler) must not split the
    // framing.
    out += ' ';
    const std::size_t from = out.size();
    out += resp.message;
    std::replace_if(
        out.begin() + static_cast<std::ptrdiff_t>(from), out.end(),
        [](char c) { return c == '\n' || c == '\r'; }, ' ');
  }
}

std::string format_response_line(const ResponseLine& resp) {
  std::string out;
  append_response_line(out, resp);
  return out;
}

namespace {

/// Splits a "key=value" token; throws naming the token otherwise.
std::pair<std::string, std::string> split_kv(const std::string& token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) {
    throw std::invalid_argument("response field \"" + token +
                                "\" is not key=value");
  }
  return {token.substr(0, eq), token.substr(eq + 1)};
}

ResponseLine parse_ok_line(std::istringstream& is) {
  ResponseLine out;
  out.ok = true;
  std::set<std::string> seen;
  std::string token;
  while (is >> token) {
    const auto [key, value] = split_kv(token);
    if (!seen.insert(key).second) {
      throw std::invalid_argument("duplicate response field \"" + key + "\"");
    }
    if (key == "id") {
      out.id = parse_uint_field(key, value);
    } else if (key == "tree") {
      // Strict bare hex: no sign, no 0x prefix (stoull would accept
      // both and wrap negatives), at most 16 digits.
      if (value.empty() || value.size() > 16 ||
          value.find_first_not_of("0123456789abcdefABCDEF") !=
              std::string::npos) {
        throw std::invalid_argument("tree \"" + value +
                                    "\" is not a 64-bit hex hash");
      }
      out.tree_hash = std::stoull(value, nullptr, 16);
    } else if (key == "n") {
      out.n = static_cast<NodeId>(parse_bounded_field(
          key, value, std::numeric_limits<NodeId>::max()));
    } else if (key == "algo") {
      out.algo = value;
    } else if (key == "p") {
      out.p = static_cast<int>(
          parse_bounded_field(key, value, std::numeric_limits<int>::max()));
    } else if (key == "makespan") {
      try {
        std::size_t used = 0;
        out.makespan = std::stod(value, &used);
        if (used != value.size()) throw std::invalid_argument(value);
      } catch (const std::exception&) {
        throw std::invalid_argument("makespan \"" + value +
                                    "\" is not a number");
      }
    } else if (key == "peak_memory") {
      out.peak_memory = parse_uint_field(key, value);
    } else if (key == "cache") {
      if (value != "hit" && value != "miss") {
        throw std::invalid_argument("cache \"" + value +
                                    "\" (want hit|miss)");
      }
      out.cache_hit = value == "hit";
    } else if (key == "priority") {
      const auto cls = parse_priority(value);
      if (!cls) {
        throw std::invalid_argument("priority \"" + value +
                                    "\" (want interactive|batch|bulk)");
      }
      out.priority = *cls;
    } else {
      throw std::invalid_argument("unknown response field \"" + key + "\"");
    }
  }
  // A truncated line (partial write, crashed server) must not parse into
  // default-zero measurements; only id= is optional.
  for (const char* required :
       {"tree", "n", "algo", "p", "makespan", "peak_memory", "cache",
        "priority"}) {
    if (!seen.count(required)) {
      throw std::invalid_argument(std::string("ok line missing required \"") +
                                  required + "\" field");
    }
  }
  return out;
}

ResponseLine parse_error_line(std::istringstream& is) {
  ResponseLine out;
  out.ok = false;
  bool saw_code = false;
  std::string token;
  // id= and code= lead; everything after code= is free-form message.
  while (is >> token) {
    const std::size_t eq = token.find('=');
    const std::string key =
        eq == std::string::npos ? std::string() : token.substr(0, eq);
    if (!saw_code && key == "id") {
      if (out.id) {
        throw std::invalid_argument("duplicate response field \"id\"");
      }
      out.id = parse_uint_field(key, token.substr(eq + 1));
      continue;
    }
    if (!saw_code && key == "code") {
      const std::string value = token.substr(eq + 1);
      const auto code = parse_error_code(value);
      if (!code) {
        throw std::invalid_argument("unknown error code \"" + value + "\"");
      }
      out.code = *code;
      saw_code = true;
      continue;
    }
    if (!saw_code) {
      throw std::invalid_argument(
          "error line must carry code=<error-code> before the message (got \"" +
          token + "\")");
    }
    if (!out.message.empty()) out.message += ' ';
    out.message += token;
  }
  if (!saw_code) {
    throw std::invalid_argument("error line without a code= field");
  }
  return out;
}

ResponseLine parse_pong_line(std::istringstream& is) {
  ResponseLine out;
  out.kind = ResponseLine::Kind::kPong;
  out.ok = true;
  std::string token;
  while (is >> token) {
    const auto [key, value] = split_kv(token);
    if (key != "id" || out.id) {
      throw std::invalid_argument("pong line must be: pong [id=<n>] (got \"" +
                                  token + "\")");
    }
    out.id = parse_uint_field(key, value);
  }
  return out;
}

ResponseLine parse_stats_line(std::istringstream& is,
                              ResponseLine::Kind kind) {
  ResponseLine out;
  out.kind = kind;
  out.ok = true;
  std::set<std::string> seen;
  std::string token;
  while (is >> token) {
    const auto [key, value] = split_kv(token);
    if (!seen.insert(key).second) {
      throw std::invalid_argument("duplicate response field \"" + key + "\"");
    }
    if (key == "id") {
      out.id = parse_uint_field(key, value);
      continue;
    }
    // Keys are free-form so servers can grow counters; values must still
    // parse — a truncated line fails loudly instead of dropping digits.
    out.stats.emplace_back(key, parse_uint_field(key, value));
  }
  return out;
}

}  // namespace

ResponseLine parse_response_line(const std::string& line) {
  std::istringstream is(line);
  std::string verb;
  if (!(is >> verb)) throw std::invalid_argument("empty response line");
  if (verb == "ok") return parse_ok_line(is);
  if (verb == "error") return parse_error_line(is);
  if (verb == "pong") return parse_pong_line(is);
  if (verb == "stats") {
    return parse_stats_line(is, ResponseLine::Kind::kStats);
  }
  if (verb == "trace") {
    return parse_stats_line(is, ResponseLine::Kind::kTrace);
  }
  throw std::invalid_argument(
      "response line must start with ok|error|pong|stats|trace (got \"" +
      verb + "\")");
}

}  // namespace treesched
