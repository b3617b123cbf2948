#include "core/simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace treesched {

namespace {

// An event time with its task, sorted by `key`.
struct TimedTask {
  std::uint64_t key;
  NodeId id;
};

// Order-preserving 64-bit image of a non-NaN time: unsigned order of the
// keys is `<` on the times. -0.0 is folded onto +0.0 first, so the two
// zeros get one key and tie exactly as they compare equal.
std::uint64_t time_key(double t) {
  if (t == 0.0) t = 0.0;
  const auto bits = std::bit_cast<std::uint64_t>(t);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

// Stable LSD radix sort on `key`, one byte per pass; a pass whose byte is
// the same in every key is skipped. `tmp` is scratch of any size.
void radix_sort(std::vector<TimedTask>& a, std::vector<TimedTask>& tmp) {
  const std::size_t n = a.size();
  std::array<std::array<std::uint32_t, 256>, 8> count{};
  for (const TimedTask& e : a) {
    for (int b = 0; b < 8; ++b) ++count[b][(e.key >> (8 * b)) & 0xFF];
  }
  tmp.resize(n);
  for (int b = 0; b < 8; ++b) {
    std::array<std::uint32_t, 256>& c = count[b];
    if (c[(a[0].key >> (8 * b)) & 0xFF] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& x : c) {
      const std::uint32_t k = x;
      x = sum;
      sum += k;
    }
    for (const TimedTask& e : a) tmp[c[(e.key >> (8 * b)) & 0xFF]++] = e;
    a.swap(tmp);
  }
}

[[noreturn]] void throw_nan(const char* what, NodeId i) {
  std::ostringstream os;
  os << "simulate: task " << i << " has a NaN " << what << " time";
  throw std::invalid_argument(os.str());
}

}  // namespace

SimulationResult simulate(const Tree& tree, const Schedule& s,
                          const SimulationOptions& opts) {
  const NodeId n = tree.size();
  if (s.size() != n) {
    throw std::invalid_argument("simulate: schedule size != tree size");
  }
  SimulationResult res;
  if (n == 0) return res;

  // Two event streams sorted by (time, id): starts and finishes. They are
  // filled in id order and sorted stably, so equal times keep id order.
  // At equal times, finishes are applied before starts so that a task may
  // begin exactly when its child ends (and memory is not double counted
  // across the boundary).
  std::vector<TimedTask> by_start(static_cast<std::size_t>(n));
  std::vector<TimedTask> by_finish(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    const double start = s.start[i];
    const double finish = s.finish(tree, i);
    if (std::isnan(start)) throw_nan("start", i);
    if (std::isnan(finish)) throw_nan("finish", i);
    by_start[i] = {time_key(start), i};
    by_finish[i] = {time_key(finish), i};
  }
  std::vector<TimedTask> tmp;
  radix_sort(by_start, tmp);
  radix_sort(by_finish, tmp);

  std::vector<char> done(static_cast<std::size_t>(n), 0);
  MemSize mem = 0;
  MemSize peak = 0;
  std::size_t fi = 0;  // cursor in by_finish

  auto record = [&](double t) {
    if (opts.record_profile) {
      if (!res.profile.empty() && res.profile.back().time == t) {
        res.profile.back().mem = mem;
      } else {
        res.profile.push_back({t, mem});
      }
    }
  };

  const double eps = 1e-9;
  for (const TimedTask& started : by_start) {
    const NodeId idx = started.id;
    const double t = s.start[idx];
    const double tol = eps * std::max(1.0, t);
    // Apply all finishes at time <= t (+tolerance).
    while (fi < by_finish.size() &&
           s.finish(tree, by_finish[fi].id) <= t + tol) {
      NodeId f = by_finish[fi++].id;
      mem -= tree.exec_size(f);
      for (NodeId c : tree.children(f)) mem -= tree.output_size(c);
      done[f] = 1;
      record(s.finish(tree, f));
    }
    // Precedence check.
    for (NodeId c : tree.children(idx)) {
      if (!done[c]) {
        std::ostringstream os;
        os << "simulate: task " << idx << " starts at " << t
           << " but child " << c << " has not finished";
        throw std::invalid_argument(os.str());
      }
    }
    mem += tree.exec_size(idx) + tree.output_size(idx);
    peak = std::max(peak, mem);
    record(t);
  }
  // Drain remaining finishes.
  while (fi < by_finish.size()) {
    NodeId f = by_finish[fi++].id;
    mem -= tree.exec_size(f);
    for (NodeId c : tree.children(f)) mem -= tree.output_size(c);
    record(s.finish(tree, f));
  }
  res.makespan = s.makespan(tree);
  res.peak_memory = peak;
  res.final_memory = mem;  // = f_root
  return res;
}

MemSize sequential_peak_memory(const Tree& tree,
                               const std::vector<NodeId>& order) {
  if (static_cast<NodeId>(order.size()) != tree.size()) {
    throw std::invalid_argument("sequential_peak_memory: bad order length");
  }
  MemSize mem = 0, peak = 0;
  for (NodeId i : order) {
    mem += tree.exec_size(i) + tree.output_size(i);
    peak = std::max(peak, mem);
    mem -= tree.exec_size(i);
    for (NodeId c : tree.children(i)) mem -= tree.output_size(c);
  }
  return peak;
}

}  // namespace treesched
