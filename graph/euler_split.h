// Euler split: partition the edges of a bipartite multigraph into two
// halves that split every vertex's degree as evenly as possible.
//
// This is the Remark 1 workhorse: on a 2k-regular multigraph the split
// yields two k-regular halves, which is what makes divide-and-conquer
// edge coloring O(E log Delta). The EdgeColorer splits its sorted
// regular ranges with its own position-paired partition
// (graph/edge_coloring.cc); this trail walker handles any multigraph,
// odd degrees included.
#pragma once

#include <vector>

#include "graph/bipartite_multigraph.h"
#include "support/thread_annotations.h"

namespace pops {

struct EulerSplitResult {
  /// side[e] is 0 or 1 for every edge id e of the input graph.
  std::vector<int> side;

  /// Degree of the vertex inside the chosen half, for convenience in
  /// tests: counts[s][v] with v a combined vertex id (left vertices
  /// first, then right vertices).
  int half_count(int s) const {
    int count = 0;
    for (const int value : side) count += value == s ? 1 : 0;
    return count;
  }
};

/// Reusable flat Euler-split kernel: walks maximal trails (odd-degree
/// start vertices first) over a caller-built CsrAdjacency and assigns
/// edges to sides 0/1 alternately along each trail, writing
/// side[edge id] for every edge in the view. Guarantees for every
/// vertex v: |deg_0(v) - deg_1(v)| <= 1, with equality to 0 whenever
/// deg(v) is even; on a 2k-regular (sub)graph both halves are exactly
/// k-regular.
///
/// All walk state (per-vertex cursors, epoch-stamped used flags) lives
/// in kernel-owned flat arrays sized by the view, so repeated splits
/// over same-shaped views perform no steady-state allocation.
///
/// Thread-compatible, not thread-safe: one kernel per thread.
class POPS_THREAD_COMPATIBLE EulerSplitKernel {
 public:
  /// Splits every edge of `adj` (whose endpoints live in `edges`;
  /// `side` must be indexable by every edge id in the view).
  void split(const CsrAdjacency& adj, Span<const Edge> edges,
             Span<int> side);

  /// Capacity snapshot for the zero-allocation tests.
  std::size_t scratch_capacity() const {
    return cursor_.capacity() + used_stamp_.capacity();
  }

 private:
  int next_unused(const CsrAdjacency& adj, int vertex);
  void walk(const CsrAdjacency& adj, const Edge* edges, int start,
            int* side);

  std::vector<int> cursor_;            // per-vertex incidence cursor
  std::vector<long long> used_stamp_;  // per-edge; valid iff == epoch_
  long long epoch_ = 0;
};

/// One-shot wrapper over EulerSplitKernel for a whole multigraph.
EulerSplitResult euler_split(const BipartiteMultigraph& graph);

}  // namespace pops
