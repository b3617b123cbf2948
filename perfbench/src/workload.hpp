#pragma once
// Seeded request streams. A run is a fixed number of rounds; round r of
// seed s always yields the same trees and requests, and the servers only
// ever see the generated request lines.
//
//   hot / routed  a pool of ~1k (tree, algo, p) keys over small
//                 synthetic: and grid: trees, warmed once per round and
//                 then asked again and again (every answer a cache hit)
//   cold          fresh assembly trees of a few hundred to several
//                 thousand nodes, each asked by the four Table 1
//                 heuristics and the three sequential baselines at one p
//   capped        fresh trees of at most ~2k nodes, each asked by
//                 MemoryBounded and CappedSubtrees at explicit caps from
//                 the feasibility floor up to loose, and at the default cap

#include <cstdint>
#include <string>
#include <vector>

#include "core/tree.hpp"
#include "util/random.hpp"

namespace perfbench {

enum class Mix { kHot, kCold, kCapped };

struct Workload {
  std::string name;
  Mix mix = Mix::kHot;
  bool routed = false;
};

/// hot | cold | capped | routed; throws std::invalid_argument otherwise.
Workload parse_workload(const std::string& name);

struct TreeInfo {
  std::string spec;
  treesched::Tree tree;
  std::uint64_t fingerprint = 0;
  /// Best-postorder peak: the memory reference of memory_ratio.
  treesched::MemSize postorder_peak = 0;
};

struct Request {
  std::uint32_t tree = 0;  ///< index into Stream::trees
  std::string algo;
  int p = 1;
  treesched::MemSize cap = 0;  ///< 0 = the scheduler's default cap
  bool interactive = false;
  /// Peak memory the answer must not exceed (capped mix); 0 = unchecked.
  treesched::MemSize peak_limit = 0;
  /// makespan_lower_bound(tree, p).
  double makespan_lb = 0.0;
  /// Parallel scheduler: its answers score makespan_ratio/memory_ratio
  /// (a sequential schedule's makespan ratio is p by construction).
  bool scored = false;
  /// The wire line, without its priority= and id= fields.
  std::string line;
};

/// One round's inputs: for the hot mix `requests` is the key pool (its
/// `interactive` flags drive the warm-up's classes); otherwise it is
/// the request stream in send order.
struct Stream {
  std::vector<TreeInfo> trees;
  std::vector<Request> requests;
};

/// Rounds a run of `seconds` makes on a machine of the expected speed
/// (the most it makes; see run_rounds in main.cpp).
int rounds_for(Mix mix, int seconds);

/// Timed seconds of one hot/routed round (the cold and capped rounds
/// are sized by their request count instead).
double hot_round_seconds(int seconds);

Stream make_stream(Mix mix, std::uint64_t seed, int round);

/// Throwaway requests (trees outside every stream) that start the pool
/// threads and resolve the schedulers before a cold/capped round.
std::vector<std::string> warmup_lines(Mix mix, std::uint64_t seed, int round);

/// The hot mix's request choice on connection `conn` of a round: each
/// request names a pool key drawn uniformly, a quarter of them
/// interactive. The load threads and the replay draw the same sequence.
class HotPicker {
 public:
  HotPicker(std::uint64_t seed, int round, int conn, std::size_t pool);
  void next(std::size_t& key, bool& interactive);

 private:
  treesched::Rng rng_;
  std::size_t pool_;
};

/// " priority=interactive" or " priority=bulk".
std::string priority_field(bool interactive);

/// Registry names, paper order.
extern const std::vector<std::string> kHeuristics;
extern const std::vector<std::string> kSequential;
extern const std::vector<std::string> kCappedAlgos;

}  // namespace perfbench
