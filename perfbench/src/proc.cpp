#include "proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.hpp"

namespace perfbench {

Child::Child(std::string name, const std::vector<std::string>& argv,
             std::string err_path)
    : name_(std::move(name)), err_path_(std::move(err_path)) {
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) {
    throw StepError("spawn " + name_ + ": pipe: " + std::strerror(errno));
  }
  const int err_fd =
      ::open(err_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (err_fd < 0) {
    ::close(out[0]);
    ::close(out[1]);
    throw StepError("spawn " + name_ + ": open " + err_path_ + ": " +
                    std::strerror(errno));
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    // Die with the benchmark, whatever kills it; SIGPIPE back to default
    // (the benchmark ignores it, and ignored signals survive exec).
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::signal(SIGPIPE, SIG_DFL);
    ::dup2(out[1], STDOUT_FILENO);
    ::dup2(err_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::dprintf(STDERR_FILENO, "exec %s: %s\n", args[0], std::strerror(errno));
    ::_exit(127);
  }
  const int fork_errno = errno;
  ::close(out[1]);
  ::close(err_fd);
  if (pid_ < 0) {
    ::close(out[0]);
    throw StepError("spawn " + name_ + ": fork: " + std::strerror(fork_errno));
  }
  out_fd_ = out[0];
}

Child::~Child() {
  if (pid_ > 0) {
    // Not stopped by stop(): a failing run. SIGTERM first, SIGKILL after
    // a grace period, and reap either way.
    ::kill(pid_, SIGTERM);
    int status = 0;
    const std::uint64_t start = now_ns();
    while (::waitpid(pid_, &status, WNOHANG) == 0 && seconds_since(start) < 5.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (::kill(pid_, SIGKILL) == 0) {
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

std::string Child::stderr_tail() const {
  std::ifstream in(err_path_);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  if (text.size() > 400) text = "..." + text.substr(text.size() - 400);
  return text;
}

std::string Child::wait_line(const std::string& prefix, double timeout_s) {
  const std::uint64_t start = now_ns();
  for (;;) {
    std::size_t nl;
    while ((nl = out_buf_.find('\n')) != std::string::npos) {
      std::string line = out_buf_.substr(0, nl);
      out_buf_.erase(0, nl + 1);
      if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
    }
    const double left = timeout_s - seconds_since(start);
    if (left <= 0) {
      throw StepError(name_ + ": no \"" + prefix + "\" line within " +
                      std::to_string(timeout_s) + " s");
    }
    pollfd pfd{out_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno != EINTR) {
      throw StepError(name_ + ": poll: " + std::strerror(errno));
    }
    if (ready <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n > 0) {
      out_buf_.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      throw StepError(name_ + " exited during startup: " + stderr_tail());
    }
  }
}

void Child::stop(double timeout_s) {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const std::uint64_t start = now_ns();
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) {
      pid_ = -1;
      throw StepError(name_ + ": waitpid: " + std::strerror(errno));
    }
    if (seconds_since(start) > timeout_s) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
      throw StepError(name_ + " did not drain within " +
                      std::to_string(timeout_s) + " s of SIGTERM");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw StepError(name_ + " exited abnormally (status " +
                    std::to_string(status) + "): " + stderr_tail());
  }
  if (stderr_tail().find("drained:") == std::string::npos) {
    throw StepError(name_ + " exited without its drained: line");
  }
}

namespace {

std::uint64_t read_run_ns(const std::string& path) {
  std::ifstream in(path);
  std::uint64_t run_ns = 0;
  in >> run_ns;
  return run_ns;
}

}  // namespace

ProcCpu read_proc_cpu(pid_t pid) {
  ProcCpu cpu;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream in(entry.path() / "schedstat");
    std::uint64_t run_ns = 0;
    if (!(in >> run_ns)) continue;
    if (entry.path().filename() == std::to_string(pid)) {
      cpu.main_ns = run_ns;
    } else {
      cpu.others_ns += run_ns;
      ++cpu.others;
    }
  }
  return cpu;
}

std::uint64_t self_thread_cpu_ns() {
  return read_run_ns("/proc/thread-self/schedstat");
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace perfbench
