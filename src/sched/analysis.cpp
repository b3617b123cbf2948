#include "sched/analysis.hpp"

namespace treesched {

const PostorderResult& TreeAnalysis::optimal_postorder() const {
  std::call_once(postorder_once_, [this] {
    postorder_ = postorder(tree_, PostorderPolicy::kOptimal);
  });
  return postorder_;
}

}  // namespace treesched
