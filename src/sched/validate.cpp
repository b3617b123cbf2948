#include "sched/validate.hpp"

#include <sstream>

#include "core/simulator.hpp"

namespace treesched {

ScheduleCheck check_schedule(const Tree& tree, const Schedule& s, int p,
                             MemSize memory_cap) {
  ScheduleCheck check;
  auto fail = [&](const std::string& msg) {
    check.ok = false;
    check.error = msg;
    return check;
  };

  const ValidationResult feasible = validate_schedule(tree, s, p);
  if (!feasible.ok) return fail(feasible.error);

  // The feasibility check above guarantees the simulator replays without
  // throwing; its peak is the exact §3.1 accounting, and it counts the
  // tasks running at once.
  const SimulationResult sim = simulate(tree, s);
  check.makespan = sim.makespan;
  check.peak_memory = sim.peak_memory;
  check.max_concurrency = sim.max_concurrency;
  if (check.max_concurrency > p) {
    std::ostringstream os;
    os << check.max_concurrency << " tasks running simultaneously on " << p
       << " processors";
    return fail(os.str());
  }
  if (memory_cap != 0 && sim.peak_memory > memory_cap) {
    std::ostringstream os;
    os << "peak memory " << sim.peak_memory << " exceeds the cap "
       << memory_cap;
    return fail(os.str());
  }
  return check;
}

}  // namespace treesched
