#include "parallel/memory_bounded.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "parallel/list_scheduler.hpp"
#include "parallel/par_deepest_first.hpp"

namespace treesched {

namespace {

// Each refused candidate costs an O(n) audit, so a round stops after this
// many refusals: without the bound, a round facing a long queue of tasks
// that do not fit would audit all of them at every event. Admissions do
// not count, so the bound never keeps an idle processor from a task that
// fits ahead of the refusals.
constexpr int kAuditWindow = 16;

// The banker: MemoryBounded's admission test over Algorithm 3.
class BankerAdmission final : public AdmissionHook {
 public:
  BankerAdmission(const Tree& tree, MemSize cap,
                  const std::vector<NodeId>& sigma)
      : tree_(tree),
        cap_(cap),
        sigma_(sigma),
        started_(static_cast<std::size_t>(tree.size()), 0) {}

  Admission admit(NodeId v) override {
    // Past the window the round ends, unless nothing runs: then the next
    // sigma task is always admissible, so the scan terminates.
    if (refusals_ >= kAuditWindow && !running_.empty()) {
      return Admission::kEndRound;
    }
    if (!admissible(v)) {
      ++refusals_;
      return Admission::kDefer;
    }
    started_[v] = 1;
    mem_ += tree_.exec_size(v) + tree_.output_size(v);
    while (sigma_next_ < sigma_.size() && started_[sigma_[sigma_next_]]) {
      ++sigma_next_;
    }
    running_.push_back(v);
    return Admission::kStart;
  }

  void finished(NodeId v) override {
    mem_ -= tree_.exec_size(v);
    for (NodeId c : tree_.children(v)) mem_ -= tree_.output_size(c);
    running_.erase(std::find(running_.begin(), running_.end(), v));
    refusals_ = 0;  // a finish opens the next round
  }

 private:
  // Admission test for starting `cand` right now.
  bool admissible(NodeId cand) const {
    const MemSize rise = tree_.exec_size(cand) + tree_.output_size(cand);
    if (mem_ + rise > cap_) return false;
    // Banker's audit: complete all running tasks and `cand`, then finish the
    // rest sequentially in sigma order; peak must stay within cap.
    MemSize m = mem_ + rise;
    // Completing running tasks + cand frees their exec files and inputs.
    auto complete = [&](NodeId r) {
      m -= tree_.exec_size(r);
      for (NodeId c : tree_.children(r)) m -= tree_.output_size(c);
    };
    for (NodeId r : running_) complete(r);
    complete(cand);
    for (std::size_t k = sigma_next_; k < sigma_.size(); ++k) {
      const NodeId v = sigma_[k];
      if (started_[v] || v == cand) continue;
      const MemSize need = m + tree_.exec_size(v) + tree_.output_size(v);
      if (need > cap_) return false;
      m = need - tree_.exec_size(v);
      for (NodeId c : tree_.children(v)) m -= tree_.output_size(c);
    }
    return true;
  }

  const Tree& tree_;
  MemSize cap_;
  const std::vector<NodeId>& sigma_;
  std::size_t sigma_next_ = 0;  // first unstarted position of sigma
  std::vector<char> started_;
  std::vector<NodeId> running_;
  MemSize mem_ = 0;
  int refusals_ = 0;  // refused audits in the current round
};

}  // namespace

std::optional<Schedule> memory_bounded_schedule(const Tree& tree, int p,
                                                MemSize cap) {
  return memory_bounded_schedule(tree, p, cap,
                                 postorder(tree, PostorderPolicy::kOptimal));
}

std::optional<Schedule> memory_bounded_schedule(const Tree& tree, int p,
                                                MemSize cap,
                                                const PostorderResult& sigma) {
  if (p < 1) throw std::invalid_argument("memory_bounded_schedule: p < 1");
  if (sigma.peak > cap) return std::nullopt;
  BankerAdmission banker(tree, cap, sigma.order);
  return list_schedule(tree, p, deepest_first_priorities(tree, sigma.order),
                       &banker);
}

MemSize min_feasible_cap(const Tree& tree) {
  return best_postorder_memory(tree);
}

}  // namespace treesched
