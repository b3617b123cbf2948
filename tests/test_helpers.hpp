#pragma once
// Shared helpers for the test suite.

#include <chrono>
#include <thread>
#include <vector>

#include "core/tree.hpp"

namespace treesched::testing {

/// Polls `done` every millisecond for up to five seconds and returns its
/// last value: how a test waits for another thread (a server, a router,
/// a fake node) to reach a state before it moves on.
template <typename Pred>
bool eventually(Pred done) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done() && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

/// Builds a tree from a parent array with pebble-game weights.
inline Tree pebble_tree(std::vector<NodeId> parent) {
  const std::size_t n = parent.size();
  return Tree(std::move(parent), std::vector<MemSize>(n, 1),
              std::vector<MemSize>(n, 0), std::vector<double>(n, 1.0));
}

/// Builds a tree from parallel arrays.
inline Tree make_tree(std::vector<NodeId> parent, std::vector<MemSize> out,
                      std::vector<MemSize> exec, std::vector<double> work) {
  return Tree(std::move(parent), std::move(out), std::move(exec),
              std::move(work));
}

/// The paper's running example shape: a small two-level tree.
///        0
///      / | \
///     1  2  3
///    /|     |
///   4 5     6
inline Tree example_tree() {
  return pebble_tree({kNoNode, 0, 0, 0, 1, 1, 3});
}

}  // namespace treesched::testing
