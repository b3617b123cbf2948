#include "parallel/list_scheduler.hpp"

#include <stdexcept>

#include "util/heap.hpp"

namespace treesched {

namespace {

struct ReadyEntry {
  PriorityKey key;
  NodeId node;
};

// Max-heap under "less": top = highest priority = smallest key. The key's
// embedded node id (stamped by list_schedule) makes the order total.
struct ReadyLess {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    return b.key < a.key;
  }
};

struct FinishEvent {
  double time;
  NodeId node;
};

struct FinishLess {  // top = earliest finish
  bool operator()(const FinishEvent& a, const FinishEvent& b) const {
    if (a.time != b.time) return b.time < a.time;
    return b.node < a.node;
  }
};

// Starts every task. Instantiated with it, run() compiles to the plain
// Algorithm 3 loop: no call through a hook is left in it to slow it down.
struct NoHook {
  static Admission admit(NodeId) { return Admission::kStart; }
  static void finished(NodeId) {}
};

template <class Hook>
Schedule run(const Tree& tree, int p, const std::vector<PriorityKey>& priority,
             Hook&& hook) {
  if (p < 1) throw std::invalid_argument("list_schedule: p < 1");
  const NodeId n = tree.size();
  if (static_cast<NodeId>(priority.size()) != n) {
    throw std::invalid_argument("list_schedule: priority size mismatch");
  }
  Schedule s(n);
  if (n == 0) return s;

  // Stamp the node id into each key: the explicit final tie-break.
  std::vector<PriorityKey> key(priority);
  for (NodeId i = 0; i < n; ++i) key[i].node = i;

  std::vector<NodeId> pending(static_cast<std::size_t>(n));
  BinaryHeap<ReadyEntry, ReadyLess> ready;
  ready.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    pending[i] = tree.num_children(i);
    if (pending[i] == 0) ready.push({key[i], i});
  }

  BinaryHeap<FinishEvent, FinishLess> events;
  std::vector<int> idle;
  idle.reserve(static_cast<std::size_t>(p));
  for (int q = p - 1; q >= 0; --q) idle.push_back(q);

  double now = 0.0;
  std::vector<ReadyEntry> deferred;
  auto assign = [&] {
    while (!idle.empty() && !ready.empty()) {
      const ReadyEntry e = ready.pop();
      const Admission a = hook.admit(e.node);
      if (a != Admission::kStart) {
        deferred.push_back(e);
        if (a == Admission::kEndRound) break;
        continue;
      }
      const int proc = idle.back();
      idle.pop_back();
      s.start[e.node] = now;
      s.proc[e.node] = proc;
      events.push({now + tree.work(e.node), e.node});
    }
    for (const ReadyEntry& e : deferred) ready.push(e);
    deferred.clear();
  };

  assign();
  while (!events.empty()) {
    now = events.top().time;
    // Drain every event at the current time before assigning, so memory is
    // released and parents become ready within one scheduling round.
    while (!events.empty() && events.top().time == now) {
      const FinishEvent ev = events.pop();
      idle.push_back(s.proc[ev.node]);
      hook.finished(ev.node);
      const NodeId par = tree.parent(ev.node);
      if (par != kNoNode && --pending[par] == 0) {
        ready.push({key[par], par});
      }
    }
    assign();
  }
  // Every task not started is pending on one that is ready: a task left
  // ready with nothing running was refused by the hook for good.
  if (!ready.empty()) {
    throw std::logic_error(
        "list_schedule: the admission hook refused every ready task while "
        "none ran");
  }
  return s;
}

}  // namespace

Schedule list_schedule(const Tree& tree, int p,
                       const std::vector<PriorityKey>& priority,
                       AdmissionHook* hook) {
  if (hook == nullptr) return run(tree, p, priority, NoHook{});
  return run(tree, p, priority, *hook);
}

}  // namespace treesched
