// Command-line scheduling driver: the "downstream user" entry point.
// Reads a tree (file or generated), runs any set of registered algorithms,
// prints the score card per algorithm and optionally dumps the schedule /
// memory profile as CSV and an ASCII Gantt chart.
//
//   $ ./examples/schedule_tool --gen grid --nx 30 --p 8 \
//         --algo ParDeepestFirst --gantt
//   $ ./examples/schedule_tool --tree my.tree --p 16 \
//         --algo ParSubtrees,ParInnerFirst,Liu --schedule-csv out.csv \
//         --profile-csv mem.csv
//   $ ./examples/schedule_tool --gen random --n 500 --cap-factor 2.0
//   $ ./examples/schedule_tool --list
//
// --algo takes one or more comma-separated SchedulerRegistry names
// (--list prints them). --cap-factor F sets a memory cap of F times the
// best-postorder peak for the memory-capped algorithms; with no --algo it
// implies --algo MemoryBounded. --validate runs the standalone checker
// (sched/validate.hpp) on every schedule — precedence, <= p concurrent
// tasks, and the memory cap when one is in force — and prints the
// verdict (non-zero exit on any violation).
//
// Scheduling runs through a SchedulingService ticket (submit + wait), so
// the tool shares the service's interning/caching engine and failures
// arrive as typed ServiceErrors — printed as "error [<code>]: <message>"
// with a non-zero exit.
//
// --trace-out <file> enables the process-wide tracer for the whole run
// and writes a Chrome trace_event JSON on exit — load it in Perfetto
// (ui.perfetto.dev) or chrome://tracing to see per-request queue-wait
// and per-algorithm compute spans on their worker threads.

#include <fstream>
#include <functional>
#include <iostream>
#include <vector>

#include "obs/trace.hpp"

#include "campaign/dataset.hpp"
#include "core/lower_bounds.hpp"
#include "core/simulator.hpp"
#include "core/trace.hpp"
#include "parallel/memory_bounded.hpp"
#include "sched/registry.hpp"
#include "sched/validate.hpp"
#include "service/service.hpp"
#include "sequential/liu.hpp"
#include "sequential/postorder.hpp"
#include "trees/generators.hpp"
#include "trees/io.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

using namespace treesched;

Tree load_tree(const CliArgs& args) {
  const std::string path = args.get("tree", "");
  if (!path.empty()) return read_tree_file(path);
  const std::string gen = args.get("gen", "random");
  Rng rng((std::uint64_t)args.get_int("seed", 1));
  if (gen == "grid") {
    const int nx = (int)args.get_int("nx", 30);
    return grid2d_assembly_tree(nx, nx, args.get_int("z", 4));
  }
  if (gen == "random") {
    RandomTreeParams params;
    params.n = (NodeId)args.get_int("n", 500);
    params.depth_bias = args.get_double("bias", 1.0);
    params.max_output = 100;
    params.max_exec = 20;
    params.min_work = 1.0;
    params.max_work = 50.0;
    return random_tree(params, rng);
  }
  if (gen == "synthetic") {
    return synthetic_assembly_tree((NodeId)args.get_int("n", 2000),
                                   args.get_double("bias", 2.0), rng);
  }
  throw std::invalid_argument("--gen must be grid|random|synthetic");
}

// With several --algo names, per-algorithm CSV dumps get the algorithm
// name spliced in before the extension so later runs don't clobber
// earlier ones ("out.csv" -> "out.ParSubtrees.csv"). Only dots in the
// filename component count as an extension separator.
std::string algo_csv_path(const std::string& base, const std::string& algo,
                          bool multi) {
  if (!multi) return base;
  const std::size_t slash = base.find_last_of('/');
  const std::size_t name_begin = slash == std::string::npos ? 0 : slash + 1;
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || dot <= name_begin) {
    return base + "." + algo;
  }
  return base.substr(0, dot) + "." + algo + base.substr(dot);
}

void dump_csv(const std::string& path, const std::string& what,
              const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  write(os);
  std::cout << "wrote " << what << " to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace treesched;
  try {
    CliArgs args(argc, argv);
    const int p = (int)args.get_int("p", 8);
    const double cap_factor = args.get_double("cap-factor", 0.0);
    const std::string default_algo =
        cap_factor > 0.0 ? "MemoryBounded" : "ParDeepestFirst";
    const std::vector<std::string> algos =
        split_csv(args.get("algo", default_algo));
    if (algos.empty()) {
      throw std::invalid_argument(
          "--algo needs at least one registry name (see --list)");
    }
    const std::string schedule_csv = args.get("schedule-csv", "");
    const std::string profile_csv = args.get("profile-csv", "");
    const bool gantt = args.get_bool("gantt", false);
    const bool validate = args.get_bool("validate", false);
    const bool list = args.get_bool("list", false);
    const std::string save_tree = args.get("save-tree", "");
    if (list) {
      args.reject_unknown();
      std::cout << "registered algorithms:\n";
      for (const std::string& name : SchedulerRegistry::instance().names()) {
        const auto caps =
            SchedulerRegistry::instance().create(name)->capabilities();
        std::cout << "  " << name;
        if (caps.sequential_only) std::cout << "  [sequential]";
        if (caps.memory_capped) std::cout << "  [memory-capped]";
        if (caps.is_oracle()) {
          std::cout << "  [oracle, n <= " << caps.max_nodes << "]";
        }
        std::cout << "\n";
      }
      return 0;
    }
    const std::string trace_out = args.get("trace-out", "");
    const Tree tree = load_tree(args);
    args.reject_unknown();
    if (!trace_out.empty()) obs::Tracer::global().enable();

    std::cout << "tree: " << tree.describe() << "\n";
    if (!save_tree.empty()) {
      write_tree_file(save_tree, tree);
      std::cout << "saved tree to " << save_tree << "\n";
    }

    const auto lb = lower_bounds(tree, p, tree.size() <= 20000);
    std::cout << "bounds: makespan >= " << lb.makespan << ", memory >= "
              << lb.memory_exact << " (postorder estimate "
              << lb.memory_postorder << ")\n";

    Resources res{p, 0};
    if (cap_factor > 0.0) {
      res.memory_cap =
          (MemSize)((double)min_feasible_cap(tree) * cap_factor);
      std::cout << "memory cap: " << res.memory_cap << " (" << cap_factor
                << "x the best-postorder peak)\n";
    }

    SchedulingService service;
    const TreeHandle handle = service.intern(tree);
    for (const std::string& name : algos) {
      const SchedulerPtr sched = SchedulerRegistry::instance().create(name);
      Resources eff = res;
      if (res.memory_cap != 0 && !sched->capabilities().memory_capped) {
        std::cout << "note: " << name
                  << " is not memory-capped; running it without the cap\n";
        eff.memory_cap = 0;
      }
      ScheduleRequest req;
      req.tree = handle;
      req.algo = name;
      req.p = eff.p;
      req.memory_cap = eff.memory_cap;
      req.want_schedule = true;
      req.priority = Priority::kInteractive;  // a human is waiting
      const ServiceResult result = service.submit(std::move(req)).wait();
      if (!result.ok()) {
        const ServiceError& err = result.error();
        std::cerr << "error [" << to_string(err.code) << "]: " << err.message
                  << "\n";
        return 1;
      }
      const Schedule& schedule = *result.value().schedule;
      const auto v = validate_schedule(tree, schedule, p);
      if (!v.ok) {
        std::cerr << "BUG: invalid schedule from " << name << ": " << v.error
                  << "\n";
        return 1;
      }
      const auto st = schedule_stats(tree, schedule, p);
      // A bound of 0 is met only by 0 (a tree with no work has makespan 0),
      // so the ratio to it is 1, not 0/0.
      const auto ratio = [](double x, double bound) {
        return fmt(bound > 0.0 ? x / bound : 1.0, 3);
      };
      std::cout << "\n" << name << " on p = " << p << ":\n"
                << "  makespan:   " << st.makespan << "  ("
                << ratio(st.makespan, lb.makespan) << "x lower bound)\n"
                << "  peak memory: " << st.peak_memory << "  ("
                << ratio((double)st.peak_memory, (double)lb.memory_postorder)
                << "x sequential postorder)\n"
                << "  processors used: " << st.processors_used << "/" << p
                << ", avg utilization " << fmt_pct(st.avg_utilization) << "\n";
      if (validate) {
        // The standalone checker: feasibility again (independently), the
        // concurrency sweep, and the cap this run actually enforced.
        const ScheduleCheck check =
            check_schedule(tree, schedule, p, eff.memory_cap);
        if (!check.ok) {
          std::cerr << "BUG: " << name << " failed validation: "
                    << check.error << "\n";
          return 1;
        }
        std::cout << "  validator: OK (" << check.max_concurrency << "/" << p
                  << " processors busy at peak";
        if (eff.memory_cap != 0) {
          std::cout << ", peak memory " << check.peak_memory
                    << " <= cap " << eff.memory_cap;
        }
        std::cout << ")\n";
      }

      if (gantt) {
        std::cout << "\n";
        ascii_gantt(std::cout, tree, schedule, p);
      }
      const bool multi = algos.size() > 1;
      if (!schedule_csv.empty()) {
        dump_csv(algo_csv_path(schedule_csv, name, multi), "schedule",
                 [&](std::ostream& os) { write_schedule_csv(os, tree, schedule); });
      }
      if (!profile_csv.empty()) {
        dump_csv(algo_csv_path(profile_csv, name, multi), "memory profile",
                 [&](std::ostream& os) {
                   write_memory_profile_csv(os, tree, schedule);
                 });
      }
    }
    if (!trace_out.empty()) {
      obs::Tracer& tracer = obs::Tracer::global();
      tracer.disable();
      std::ofstream out(trace_out);
      if (!out) throw std::runtime_error("cannot open " + trace_out);
      const std::size_t written = tracer.write_chrome_trace(out);
      std::cout << "wrote " << written << " trace spans to " << trace_out
                << " (" << tracer.dropped()
                << " overwritten; open in Perfetto or chrome://tracing)\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
