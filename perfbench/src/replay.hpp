#pragma once
// The traced replay: the same seeded stream (a fixed prefix of round 0),
// executed in this process on one thread by calling each layer's public
// functions in the order the serving path uses them — decode, parse,
// resolve, intern, probe, schedule, simulate, put, encode, plus the
// router's fingerprint and ring walk. Every call is one span (name,
// start, end, parent, request id) kept in the benchmark's own buffer and
// written out at the end. The replay also checks the served answers of
// the prefix bit for bit against the in-process results.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "load.hpp"
#include "workload.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::int64_t request = -1; ///< replayed request id, -1 = not a request
  std::uint32_t covers = 1;  ///< requests one call served (a batch decode: 16)
  bool on_path = false;      ///< on the measured serving path (the ledger)
};

struct LayerCost {
  double self_ns = 0.0;  ///< summed self time
  double calls = 0.0;    ///< requests the calls served (Span::covers)
};

struct ReplayResult {
  std::vector<Span> spans;            ///< of the last spans-on pass
  std::map<std::string, LayerCost> layers;  ///< by span name
  std::size_t requests = 0;           ///< replayed requests per pass
  double path_ns_per_request = 0.0;   ///< on-path self time per request
  double trace_overhead_pct = 0.0;    ///< spans on vs off, same calls
  double loopback_rtt_us = 0.0;
  std::uint64_t checked = 0;          ///< served answers compared
  std::uint64_t mismatched = 0;
  std::vector<std::string> errors;
};

/// Replays round 0 of `workload`: its stream and `served`, the answers
/// the servers gave in that round. `traced` false runs one spans-off pass
/// that only checks answers; true adds the spans-on/off passes, the
/// scheduler probes and the loopback echo.
ReplayResult replay(const Workload& workload, const Stream& stream,
                    const std::vector<Answer>& served, std::uint64_t seed,
                    bool traced);

/// Writes `spans` as tab-separated lines (name, start, end, parent,
/// request) to `path`.
void write_spans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
