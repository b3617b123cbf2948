#include "core/simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

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

[[noreturn]] void throw_unfinished_child(NodeId i, double t, NodeId c) {
  std::ostringstream os;
  os << "simulate: task " << i << " starts at " << t << " but child " << c
     << " has not finished";
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
  // across the boundary). A zero-length task is the exception: its own
  // start applies before its finish, and it starts and finishes before its
  // parent starts.
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

  // kDue: the finish sweep passed the task before it started (a
  // zero-length task); its finish applies right after its start.
  enum : char { kIdle, kRunning, kDue, kDone };
  std::vector<char> state(static_cast<std::size_t>(n), kIdle);
  MemSize mem = 0;
  MemSize peak = 0;
  // The concurrency count: a task runs from its start event to its
  // finish event. A zero-length task runs at its instant ahead of the
  // tasks that start then, as its own processor runs it, so it counts
  // beside the `across` tasks still running when `instant` began.
  int running = 0, across = 0, busiest = 0;
  double instant = 0.0;
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
  auto finish = [&](NodeId f) {
    mem -= tree.exec_size(f);
    for (NodeId c : tree.children(f)) mem -= tree.output_size(c);
    state[f] = kDone;
    record(s.finish(tree, f));
  };
  auto begin = [&](NodeId v) {
    mem += tree.exec_size(v) + tree.output_size(v);
    peak = std::max(peak, mem);
    record(s.start[v]);
    if (state[v] == kDue) {
      busiest = std::max(busiest, across + 1);
      finish(v);
    } else {
      busiest = std::max(busiest, ++running);
      state[v] = kRunning;
    }
  };
  // Every child of `v` must be done before it starts. A child that is due
  // but not started is a zero-length task at this instant: it runs first,
  // its own due children before it (iteratively: such chains can be as
  // long as the tree is deep).
  std::vector<std::pair<NodeId, std::size_t>> stack;  // (task, next child)
  auto run_due_children = [&](NodeId v) {
    stack.push_back({v, 0});
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      const auto kids = tree.children(u);
      while (next < kids.size() && state[kids[next]] == kDone) ++next;
      if (next == kids.size()) {
        const NodeId done = u;
        stack.pop_back();
        if (done != v) begin(done);
      } else if (state[kids[next]] == kDue) {
        stack.push_back({kids[next], 0});
      } else {
        throw_unfinished_child(u, s.start[u], kids[next]);
      }
    }
  };

  const double eps = 1e-9;
  for (const TimedTask& started : by_start) {
    const NodeId idx = started.id;
    if (state[idx] == kDone) continue;  // ran ahead of its parent
    const double t = s.start[idx];
    const double tol = eps * std::max(1.0, t);
    // Apply all finishes at time <= t (+tolerance).
    while (fi < by_finish.size() &&
           s.finish(tree, by_finish[fi].id) <= t + tol) {
      const NodeId f = by_finish[fi++].id;
      if (state[f] == kIdle) {
        state[f] = kDue;
      } else {
        --running;
        finish(f);
      }
    }
    if (t != instant) {
      instant = t;
      across = running;
    }
    for (NodeId c : tree.children(idx)) {
      if (state[c] != kDone) {
        run_due_children(idx);
        break;
      }
    }
    begin(idx);
  }
  // Drain remaining finishes.
  while (fi < by_finish.size()) finish(by_finish[fi++].id);
  res.makespan = s.makespan(tree);
  res.peak_memory = peak;
  res.final_memory = mem;  // = f_root
  res.max_concurrency = busiest;
  return res;
}

SimulationResult score_schedule(const Tree& tree, const Schedule& s,
                                std::span<const NodeId> traversal) {
  const NodeId n = tree.size();
  if (n == 0 || s.size() != n ||
      traversal.size() != static_cast<std::size_t>(n)) {
    return simulate(tree, s);
  }
  // sequential_peak_memory's sweep, checking as it goes that the replay
  // visits the tasks in this order.
  MemSize mem = 0, peak = 0;
  double prev = -std::numeric_limits<double>::infinity();
  double prev_finish = prev;
  for (NodeId v : traversal) {
    const double start = s.start[v];
    if (!(start > prev) || !(start >= prev_finish)) return simulate(tree, s);
    mem += tree.exec_size(v) + tree.output_size(v);
    peak = std::max(peak, mem);
    mem -= tree.exec_size(v);
    for (NodeId c : tree.children(v)) {
      if (!(s.start[c] < start)) return simulate(tree, s);
      mem -= tree.output_size(c);
    }
    prev = start;
    prev_finish = s.finish(tree, v);
  }
  if (std::isnan(prev_finish)) return simulate(tree, s);
  SimulationResult res;
  res.makespan = s.makespan(tree);
  res.peak_memory = peak;
  res.final_memory = mem;  // = f_root
  res.max_concurrency = 1;
  return res;
}

MemSize sequential_peak_memory(const Tree& tree,
                               std::span<const NodeId> order) {
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
