#pragma once
// A test-only scheduler, registered as "TestGate", whose schedule() blocks
// while the gate is closed. Requests for it pin pool workers for exactly
// as long as a test needs them pinned, however fast the machine or the
// real schedulers are, so "this request is still queued" becomes a fact
// rather than a race against a heavy computation.
//
// Include it from one translation unit per test binary: it registers the
// scheduler, which then appears in that binary's registry roster.

#include <condition_variable>
#include <mutex>

#include "core/schedule.hpp"
#include "sched/registry.hpp"
#include "sched/scheduler.hpp"

namespace treesched::testing {

/// Process-wide gate, open unless a GateGuard holds it closed.
class Gate {
 public:
  static Gate& instance() {
    static Gate gate;
    return gate;
  }

  void close() {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
  }

  void open() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = true;
};

/// Closes the gate for its lifetime. Declare it after the service it pins:
/// it is then destroyed first, so an assertion that leaves the test early
/// reopens the gate before the service's destructor drains its workers.
class GateGuard {
 public:
  GateGuard() { Gate::instance().close(); }
  ~GateGuard() { open(); }
  GateGuard(const GateGuard&) = delete;
  GateGuard& operator=(const GateGuard&) = delete;

  /// Lets every blocked and later "TestGate" request through.
  void open() { Gate::instance().open(); }
};

/// Waits at the gate, then schedules the tree sequentially in its natural
/// postorder on processor 0 (a valid schedule for any p).
class GateScheduler final : public Scheduler {
 public:
  std::string name() const override { return "TestGate"; }
  SchedulerCapabilities capabilities() const override { return {}; }
  Schedule schedule(const Tree& tree, const Resources& res) const override {
    validate_resources(res, capabilities(), name());
    Gate::instance().wait();
    return sequential_schedule(tree, tree.natural_postorder());
  }
};

inline const SchedulerRegistrar gate_scheduler_registrar{
    "TestGate", [] { return SchedulerPtr(new GateScheduler); }};

}  // namespace treesched::testing
