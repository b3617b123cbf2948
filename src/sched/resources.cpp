// The one place Resources sanity lives. Every builtin scheduler calls
// validate_resources() first thing in run(), so the error message is
// uniform across the roster (test_service.cpp asserts this for all ten
// registered algorithms) and the service can rely on invalid requests
// failing before they reach the result cache.

#include <stdexcept>
#include <string>

#include "sched/scheduler.hpp"

namespace treesched {

void validate_resources(const Resources& res,
                        const SchedulerCapabilities& caps,
                        const std::string& who) {
  if (res.p < 1) {
    throw std::invalid_argument(who + ": invalid resources: p must be >= 1 (got " +
                                std::to_string(res.p) + ")");
  }
  if (res.memory_cap != 0 && !caps.memory_capped) {
    throw std::invalid_argument(
        who + ": invalid resources: memory cap " +
        std::to_string(res.memory_cap) +
        " given to a scheduler without the memory_capped capability");
  }
}

}  // namespace treesched
