#pragma once
// Minimal command-line flag parsing shared by the bench/ and examples/
// binaries. Flags are of the form `--name value` or `--name=value`;
// unknown flags raise an error so typos do not silently change experiments.

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace treesched {

/// Splits "a,b,c" into its non-empty components (for list-valued flags
/// like --algo and --procs).
std::vector<std::string> split_csv(const std::string& csv);

class CliArgs {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input.
  CliArgs(int argc, char** argv);

  /// True if the flag was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// An integer flag in [min, max]: a value outside it throws
  /// std::invalid_argument naming the flag and the range, so a number
  /// bound for a narrower type (a port, a KiB count to shift) fails
  /// instead of wrapping. The default range is all of int64.
  [[nodiscard]] std::int64_t get_int(
      const std::string& name, std::int64_t fallback,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Marks a flag as recognized (for unknown-flag detection).
  void describe(const std::string& name);

  /// Throws if any parsed flag was never `describe`d or `get`ed.
  void reject_unknown() const;

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> seen_;
  std::vector<std::string> positional_;
};

}  // namespace treesched
