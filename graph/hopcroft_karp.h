// Hopcroft-Karp maximum matching on bipartite multigraphs.
//
// Used by the matching-peel and circuit-peel coloring backends to peel
// perfect matchings off regular multigraphs (which always have one, by
// Hall's theorem), and exposed on its own because the benches time it
// in isolation.
#pragma once

#include <vector>

#include "graph/bipartite_multigraph.h"
#include "support/thread_annotations.h"

namespace pops {

struct MatchingResult {
  /// Edge id matched at each left vertex, or -1 if unmatched.
  std::vector<int> left_edge;
  /// Edge id matched at each right vertex, or -1 if unmatched.
  std::vector<int> right_edge;
  /// Number of matched pairs.
  int size = 0;

  bool is_perfect(const BipartiteMultigraph& graph) const {
    return size == graph.left_count() &&
           graph.left_count() == graph.right_count();
  }
};

/// Reusable flat Hopcroft-Karp kernel over a caller-built CsrAdjacency.
/// The BFS layering and the augmenting DFS both run iteratively out of
/// kernel-owned flat arrays (distance layers, BFS queue, an explicit
/// DFS stack), so repeated matchings over same-shaped views perform no
/// steady-state allocation and the DFS cannot overflow the call stack
/// on deep alternating paths.
///
/// Thread-compatible, not thread-safe: one kernel per thread.
class POPS_THREAD_COMPATIBLE MatchingKernel {
 public:
  /// Computes a maximum matching of `adj` (whose edge endpoints live in
  /// `edges`) and returns its size. O(E * sqrt(V)).
  int match(const CsrAdjacency& adj, Span<const Edge> edges);

  /// Pre-sizes the kernel for views with at most `vertices` vertices a
  /// side: later matchings within that bound never allocate.
  void reserve(int vertices) {
    const std::size_t side = as_size(vertices);
    match_left_.reserve(side);
    match_right_.reserve(side);
    dist_.reserve(side);
    queue_.reserve(side);
    stack_l_.reserve(side + 1);
    stack_at_.reserve(side + 1);
    stack_e_.reserve(side + 1);
  }

  /// Edge id matched at each left vertex (-1 if unmatched), valid until
  /// the next match() call.
  Span<const int> left_edges() const {
    return Span<const int>(match_left_.data(), match_left_.size());
  }
  /// Edge id matched at each right vertex (-1 if unmatched).
  Span<const int> right_edges() const {
    return Span<const int>(match_right_.data(), match_right_.size());
  }

  /// Capacity snapshot for the zero-allocation tests.
  std::size_t scratch_capacity() const {
    return match_left_.capacity() + match_right_.capacity() +
           dist_.capacity() + queue_.capacity() + stack_l_.capacity() +
           stack_at_.capacity() + stack_e_.capacity();
  }

 private:
  bool bfs(const CsrAdjacency& adj, const Edge* edges);
  bool try_augment(const CsrAdjacency& adj, const Edge* edges, int root);

  std::vector<int> match_left_;
  std::vector<int> match_right_;
  std::vector<int> dist_;      // BFS layer per left vertex
  std::vector<int> queue_;     // BFS queue of left vertices
  std::vector<int> stack_l_;   // DFS stack: left vertex per frame
  std::vector<int> stack_at_;  // DFS stack: incidence cursor per frame
  std::vector<int> stack_e_;   // DFS stack: edge taken out of frame
};

/// O(E * sqrt(V)) maximum matching (one-shot wrapper over
/// MatchingKernel).
MatchingResult maximum_matching(const BipartiteMultigraph& graph);

}  // namespace pops
