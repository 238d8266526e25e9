// Proper edge coloring of bipartite multigraphs with Delta colors.
//
// König's theorem: the chromatic index of a bipartite multigraph equals
// its maximum degree Delta. Two of its constructive proofs are the two
// backends:
//
//   * alternating-path: insert edges one by one; on a color clash flip
//     a two-colored alternating path (O(V*E) worst case, tiny
//     constants). The router colors irregular window traffic and
//     partial phases with it.
//   * euler-split: Gabow's Euler-partition divide and conquer. Pad to
//     Delta-regular, halve every even-degree range with a
//     position-paired Euler partition (one linear pass plus one cycle
//     walk), and peel one perfect matching whenever the degree is odd,
//     found by the random walk of Goel, Kapralov and Khanna (STOC
//     2010). With Delta a power of two it never peels: O(E log Delta).
//     The router's default for the d-regular H.
//
// Both backends return a coloring with exactly Delta colors for every
// non-empty input (0 colors for the empty graph). The walk is seeded
// from its range alone, so a coloring depends only on its input, never
// on what the colorer colored before.
#pragma once

#include <string>
#include <vector>

#include "graph/bipartite_multigraph.h"
#include "support/thread_annotations.h"

namespace pops {

enum class ColoringAlgorithm {
  kAlternatingPath = 0,
  kEulerSplit = 1,
};

inline constexpr ColoringAlgorithm kAllColoringAlgorithms[] = {
    ColoringAlgorithm::kAlternatingPath,
    ColoringAlgorithm::kEulerSplit,
};

std::string to_string(ColoringAlgorithm algorithm);

struct EdgeColoring {
  /// color[e] in [0, num_colors) for every edge id e.
  std::vector<int> color;
  int num_colors = 0;
};

/// Reusable colorer: owns all scratch for color() and spread(), so
/// repeated colorings of same-shaped graphs perform no steady-state
/// heap allocation (the RoutingEngine holds one per topology). Results
/// are written into caller-provided EdgeColoring storage, whose
/// capacity is likewise reused across calls.
///
/// Both backends run on flat scratch. The alternating-path backend
/// uses vertex-major color-slot tables; euler-split runs iteratively
/// over index ranges of one padded delta-regular edge array kept sorted
/// by left vertex. An even-degree range splits in place by pairing
/// positions, and an odd-degree range peels a perfect matching by a
/// random walk over the same positions. No transient
/// BipartiteMultigraph, no adjacency view, no per-recursion vectors.
///
/// Thread-compatible, not thread-safe: the scratch tables make every
/// call a mutation, so use one colorer per thread (see
/// support/thread_annotations.h).
class POPS_THREAD_COMPATIBLE EdgeColorer {
 public:
  /// Properly colors `graph` with max_degree colors into `out`
  /// (out.color is resized in place).
  void color(const BipartiteMultigraph& graph,
             ColoringAlgorithm algorithm, EdgeColoring& out);

  /// In-place fair distribution: rebalances `coloring` (a proper
  /// coloring of `graph`) onto num_classes classes (num_classes >=
  /// coloring.num_colors) so that class sizes differ by at most one,
  /// keeping it proper. While some class is empty, every class keeps
  /// floor(E / k) edges and its surplus moves straight into empty
  /// classes, each fed by one source class only (a subset of a
  /// matching is a matching); alternating-path swaps then balance what
  /// is left. When num_classes divides the edge count, every class
  /// ends up with exactly edge_count / num_classes edges.
  void spread(const BipartiteMultigraph& graph, int num_classes,
              EdgeColoring& coloring);

  /// Sizes the scratch tables of `algorithm`, and only those, for
  /// graphs with at most `vertices` vertices a side and maximum degree
  /// at most `max_degree`: coloring such a graph with that backend then
  /// never grows the colorer.
  void reserve(int vertices, int max_degree, ColoringAlgorithm algorithm);

  /// Sizes spread()'s tables for graphs with at most `vertices`
  /// vertices a side, spread onto at most `vertices` classes: such a
  /// spread then never grows the colorer.
  void reserve_spread(int vertices);

  /// Capacity snapshot for the zero-allocation tests.
  std::size_t scratch_capacity() const;

 private:
  void color_alternating(const BipartiteMultigraph& graph, int delta,
                         EdgeColoring& out);
  void insert_edge(const BipartiteMultigraph& graph, int delta, int e,
                   EdgeColoring& out);
  void flip_path(const BipartiteMultigraph& graph, int delta, int v,
                 int alpha, int beta, EdgeColoring& out);
  void assign_color(int delta, int e, int u, int v, int c,
                    EdgeColoring& out);
  void split_into_empty_classes(int edge_count, int num_classes,
                                EdgeColoring& coloring);

  // Divide-and-conquer machinery. The recursion is an explicit stack
  // of ranges [lo, hi) of dc_work_ (edge ids into dc_edges_), each
  // delta-regular on the padded vertex set, sorted by left vertex, and
  // owning the color block [base, base + delta).
  struct DncRange {
    int lo;
    int hi;
    int delta;
    int base;
  };
  int setup_regular(const BipartiteMultigraph& graph, int delta);
  int split_even(int lo, int hi);
  int peel_matching(int lo, int hi, int color_value, EdgeColoring& out);
  void paint(int lo, int hi, int color_value, EdgeColoring& out) const;
  void color_dnc(const BipartiteMultigraph& graph, int delta,
                 EdgeColoring& out);

  // Alternating-path scratch. The slot arrays are vertex-major flat
  // tables: slot[vertex * delta + color] is the edge with that color
  // at that vertex, or -1.
  std::vector<int> left_slot_;
  std::vector<int> right_slot_;
  std::vector<int> path_;
  // spread() scratch. The vertex arrays index left vertices first,
  // then right ones.
  std::vector<int> sizes_;
  std::vector<int> slot_a_;
  std::vector<int> slot_b_;
  std::vector<char> walked_;      // per vertex: far end of a walked path
  std::vector<int> spread_path_;  // one path's edges, one per vertex at most
  std::vector<int> split_fill_;   // per class: the empty class it fills
  // Divide-and-conquer scratch: the padded regularized edge array and
  // the flat per-position arrays the range kernels index into.
  int regular_n_ = 0;            // padded per-side vertex count
  std::vector<Edge> dc_edges_;   // real edges first, then padding
  std::vector<int> dc_work_;     // padded edge ids, by position
  std::vector<int> dc_aux_;      // split output, copied back
  std::vector<int> dc_partner_;  // per position: its right-pair mate
  std::vector<int> dc_pending_;  // per right vertex: unpaired position
  std::vector<int> dc_deg_left_;
  std::vector<int> dc_deg_right_;
  std::vector<DncRange> dc_stack_;
  // Matching-peel walk scratch, one entry per padded vertex: the
  // matched position of each left and each right vertex (relative to
  // the range start, -1 while free), the walk's positions, and the
  // step at which the walk reached each right vertex.
  std::vector<int> dc_match_left_;
  std::vector<int> dc_match_right_;
  std::vector<int> dc_walk_;
  std::vector<int> dc_walk_at_;
};

/// Properly colors the edges of any bipartite multigraph with
/// max_degree colors. Thin wrapper over a transient EdgeColorer.
EdgeColoring color_edges(
    const BipartiteMultigraph& graph,
    ColoringAlgorithm algorithm = ColoringAlgorithm::kAlternatingPath);

/// Rebalances a proper coloring onto num_classes classes (num_classes
/// >= coloring.num_colors) so that class sizes differ by at most one,
/// keeping it proper: surplus edges first move straight into empty
/// classes (one source class per empty class), then alternating-path
/// swaps finish the balance. When num_classes divides the edge count,
/// every class ends up with exactly edge_count / num_classes edges.
/// This is the "fair distribution" step of the Theorem 2 router:
/// classes become intermediate groups, and the size bound is the
/// receiver capacity of a group.
EdgeColoring spread_colors(const BipartiteMultigraph& graph,
                           const EdgeColoring& coloring, int num_classes);

}  // namespace pops
