#include "util/cli.hpp"

#include <stdexcept>

namespace treesched {

CliArgs::CliArgs(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    if (body.empty()) throw std::invalid_argument("bare '--' argument");
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";  // boolean-style flag
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  seen_[name] = true;
  return flags_.count(name) != 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  seen_[name] = true;
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback,
                              std::int64_t min, std::int64_t max) const {
  seen_[name] = true;
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  std::int64_t value = 0;
  try {
    std::size_t used = 0;
    value = std::stoll(it->second, &used);
    if (used != it->second.size()) {
      throw std::invalid_argument("trailing garbage");
    }
  } catch (const std::exception&) {
    throw std::invalid_argument("bad integer value for --" + name + ": '" +
                                it->second + "'");
  }
  if (value < min || value > max) {
    const std::string range =
        max == std::numeric_limits<std::int64_t>::max()
            ? "at least " + std::to_string(min)
            : "in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
    throw std::invalid_argument("--" + name + " must be " + range + ", got " +
                                it->second);
  }
  return value;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  seen_[name] = true;
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size()) {
      throw std::invalid_argument("trailing garbage");
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad numeric value for --" + name + ": '" +
                                it->second + "'");
  }
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  seen_[name] = true;
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second.empty() || it->second == "1" || it->second == "true" ||
      it->second == "yes")
    return true;
  if (it->second == "0" || it->second == "false" || it->second == "no")
    return false;
  throw std::invalid_argument("bad boolean value for --" + name + ": " +
                              it->second);
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > pos) out.push_back(csv.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

void CliArgs::describe(const std::string& name) { seen_[name] = true; }

void CliArgs::reject_unknown() const {
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (!seen_.count(name)) {
      throw std::invalid_argument("unknown flag --" + name);
    }
  }
}

}  // namespace treesched
