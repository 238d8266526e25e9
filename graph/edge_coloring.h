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
//     The router's default for the d-regular H, which the RoutingEngine
//     hands over as a list sorted by left vertex (color_regular), so
//     no graph is built, padded or sorted on that path.
//
// Both backends return a coloring with exactly Delta colors for every
// non-empty input (0 colors for the empty graph). The walk is seeded
// from its range alone, so a coloring depends only on its input, never
// on what the colorer colored before.
#pragma once

#include <string>
#include <vector>

#include "graph/bipartite_multigraph.h"
#include "support/span.h"
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

/// One edge of a regular multigraph listed by left vertex, as
/// EdgeColorer::color_regular takes it: its id and its right vertex.
/// Its left vertex is implied by its position in the list.
struct SortedEdge {
  int id;
  int right;
};

/// Reusable colorer: owns all scratch for color() and spread(), so
/// repeated colorings of same-shaped graphs perform no steady-state
/// heap allocation (the RoutingEngine holds one per topology). Results
/// are written into caller-provided EdgeColoring storage, whose
/// capacity is likewise reused across calls.
///
/// Both backends run on flat scratch. The alternating-path backend
/// uses vertex-major color-slot tables; euler-split runs iteratively
/// over index ranges of a padded delta-regular edge list sorted by
/// left vertex, each position holding its edge's id and right vertex.
/// An even-degree range splits into the other of two such lists by
/// pairing positions, and an odd-degree range peels a perfect matching
/// by a random walk over the same positions. No transient
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

  /// Euler-split on a `degree`-regular multigraph already listed by
  /// left vertex: left vertex u's edges sit at positions
  /// [u * degree, (u + 1) * degree) of `edges`, and the ids are a
  /// permutation of [0, edges.size()). Colors it with `degree` colors
  /// into `out`, indexed by id. color() with kEulerSplit pads and sorts
  /// a graph into such a list (each left vertex's edges in id order)
  /// and runs the same kernel, so a graph listed that way gets exactly
  /// color()'s coloring. An empty list gets 0 colors.
  void color_regular(Span<const SortedEdge> edges, int degree,
                     EdgeColoring& out);

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
  /// The same spread of a `degree`-regular multigraph in the form
  /// color_regular takes it, listed by left vertex, with ids equal to
  /// positions (edges[i].id == i): edge i joins left vertex i / degree
  /// to edges[i].right. Both forms read the same endpoints by edge id,
  /// so a graph built from the list in list order spreads identically.
  void spread(Span<const SortedEdge> edges, int degree, int num_classes,
              EdgeColoring& coloring);

  /// Sizes the scratch tables of `algorithm`, and only those, for
  /// graphs with at most `vertices` vertices a side and maximum degree
  /// at most `max_degree`: coloring such a graph with that backend
  /// (through color(), or color_regular() for euler-split) then never
  /// grows the colorer.
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
  /// The one body of both spread() forms: `endpoints(e)` is edge e's
  /// Edge{left, right}.
  template <typename Endpoints>
  void spread_edges(int edge_count, int vertex_count, int left_count,
                    Endpoints endpoints, int num_classes,
                    EdgeColoring& coloring);
  void split_into_empty_classes(int edge_count, int num_classes,
                                EdgeColoring& coloring);

  // Divide-and-conquer machinery. The recursion is an explicit stack
  // of ranges [lo, hi) of one of the edge lists, each delta-regular on
  // the padded vertex set, sorted by left vertex, and owning the color
  // block [base, base + delta). `from` is the list holding the range:
  // the caller's, or one of dc_lists_.
  struct DncRange {
    int lo;
    int hi;
    int delta;
    int base;
    const SortedEdge* from;
  };
  void color_dnc(const BipartiteMultigraph& graph, int delta,
                 EdgeColoring& out);
  void color_listed(const SortedEdge* list, int vertices, int delta,
                    int real_edges, EdgeColoring& out);
  void pair_at_right(const SortedEdge* from, int lo, int hi);
  int split_even(const SortedEdge* from, SortedEdge* to, int lo, int hi);
  void paint_two(const SortedEdge* from, int lo, int hi, int base,
                 EdgeColoring& out);
  int peel_matching(const SortedEdge* from, SortedEdge* to, int lo, int hi,
                    int color_value, EdgeColoring& out);
  void paint(const SortedEdge* from, int lo, int hi, int color_value,
             EdgeColoring& out) const;
  // The right-pair mates of the range starting at lo, indexed from the
  // range start. partner_at(lo)[-1] is the entry before the range
  // (dc_partner_[0] when lo is 0), a sink for pair_at_right's opening
  // edges that no walk of this range reads.
  int* partner_at(int lo) { return dc_partner_.data() + 1 + lo; }

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
  // Divide-and-conquer scratch. Every step reads its range from one
  // list and writes what it leaves at the same positions of the other
  // (the ranges on the stack are disjoint, so those are free), so the
  // two padded lists take turns. color() pads and sorts a graph into
  // dc_lists_[1], which the first step only reads.
  int regular_n_ = 0;                    // padded per-side vertex count
  std::vector<SortedEdge> dc_lists_[2];  // the two lists, padded
  std::vector<int> dc_partner_;          // see partner_at()
  std::vector<int> dc_pending_;          // per right vertex: open position
  std::vector<int> dc_cursor_;           // color(): left vertex cursors
  std::vector<int> dc_deg_right_;        // color(): right vertex degrees
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
