#pragma once
// Child serving processes and the /proc readings taken from outside
// them: per-thread CPU from /proc/<pid>/task/*/schedstat and peak RSS
// from /proc/<pid>/status. A Child that stop() did not end is sent
// SIGTERM (then SIGKILL) and reaped by its destructor, and it dies with
// the benchmark (PR_SET_PDEATHSIG), so a run can neither hang on nor
// leak a server.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Child {
 public:
  /// Spawns argv[0] with stdout on a pipe and stderr appended to
  /// `err_path`. Throws StepError when the spawn itself fails.
  Child(std::string name, const std::vector<std::string>& argv,
        std::string err_path);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  Child(Child&&) = delete;
  Child& operator=(Child&&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Reads stdout until a line starting with `prefix` arrives and returns
  /// the rest of that line. Throws StepError on timeout or early exit.
  std::string wait_line(const std::string& prefix, double timeout_s);

  /// SIGTERM, then waits up to `timeout_s` for the exit. Requires exit
  /// code 0 and a `drained:` line on stderr; throws StepError otherwise
  /// (after a SIGKILL when the drain timed out). The child is reaped
  /// either way.
  void stop(double timeout_s);

 private:
  std::string stderr_tail() const;

  std::string name_;
  std::string err_path_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string out_buf_;
};

/// CPU split (schedstat run time, ns) of one serving process: its main
/// thread (the I/O thread of schedule_server and schedule_router) and
/// the sum of all others (the shared thread pool). Threads that exit
/// between the directory scan and the read are skipped.
struct ProcCpu {
  std::uint64_t main_ns = 0;
  std::uint64_t others_ns = 0;
  std::size_t others = 0;
};
ProcCpu read_proc_cpu(pid_t pid);

/// schedstat run time of the calling thread, in ns.
std::uint64_t self_thread_cpu_ns();

/// Peak resident set (VmHWM) of `pid`, in MB.
double peak_rss_mb(pid_t pid);

}  // namespace perfbench
