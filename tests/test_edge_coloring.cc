// Unit coverage for color_edges — both backends on random
// Delta-regular multigraphs, on odd-degree multigraphs with heavy
// parallel edges (euler-split's matching peel), on the group
// multigraphs H that routing actually colors, on padded window traffic
// (validity + exactly Delta colors), and on degenerate shapes
// (Delta = 1, n = 1, empty graph, a padded size past int) — and for
// euler-split's list entry color_regular, which must match color() on
// the same graph.
#include "graph/edge_coloring.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "graph/validation.h"
#include "perm/families.h"
#include "perm/permutation.h"
#include "pops/network.h"
#include "support/prng.h"
#include "tests/graph_util.h"
#include "tests/testing.h"

namespace pops {
namespace {

using testing::random_regular;

POPS_TEST(AlgorithmNames) {
  EXPECT_EQ(to_string(ColoringAlgorithm::kAlternatingPath),
            "alternating-path");
  EXPECT_EQ(to_string(ColoringAlgorithm::kEulerSplit), "euler-split");
}

POPS_TEST(EveryBackendColorsRegularGraphsWithDeltaColors) {
  Rng rng(21);
  for (const auto algorithm : kAllColoringAlgorithms) {
    for (const int n : {2, 5, 8, 16, 32}) {
      for (const int degree : {1, 2, 3, 4, 7, 8, 13}) {
        const BipartiteMultigraph g = random_regular(n, degree, rng);
        const EdgeColoring coloring = color_edges(g, algorithm);
        EXPECT_EQ(coloring.num_colors, degree);
        EXPECT_TRUE(is_valid_edge_coloring(g, coloring));
      }
    }
  }
}

POPS_TEST(EveryBackendHandlesDegenerateShapes) {
  for (const auto algorithm : kAllColoringAlgorithms) {
    // Empty graph: zero colors.
    const BipartiteMultigraph empty(3, 4);
    const EdgeColoring none = color_edges(empty, algorithm);
    EXPECT_EQ(none.num_colors, 0);
    EXPECT_TRUE(is_valid_edge_coloring(empty, none));

    // n = 1 with Delta parallel edges: every edge its own color. Odd
    // Delta makes euler-split peel matchings on one vertex a side.
    for (const int delta : {1, 3, 5, 7, 9, 31}) {
      BipartiteMultigraph bundle(1, 1);
      for (int k = 0; k < delta; ++k) bundle.add_edge(0, 0);
      const EdgeColoring rainbow = color_edges(bundle, algorithm);
      EXPECT_EQ(rainbow.num_colors, delta);
      EXPECT_TRUE(is_valid_edge_coloring(bundle, rainbow));
    }

    // Delta = 1 (a partial matching): one color.
    BipartiteMultigraph matching(4, 4);
    matching.add_edge(0, 2);
    matching.add_edge(3, 1);
    const EdgeColoring mono = color_edges(matching, algorithm);
    EXPECT_EQ(mono.num_colors, 1);
    EXPECT_TRUE(is_valid_edge_coloring(matching, mono));
  }
}

// A multigraph on n + n vertices with the given edges, in order.
BipartiteMultigraph multigraph(int n, const std::vector<Edge>& edges) {
  BipartiteMultigraph g(n, n);
  for (const Edge& e : edges) g.add_edge(e.left, e.right);
  return g;
}

// `copies` parallel copies of one random perfect matching on n + n
// vertices, each left vertex's copies adjacent.
std::vector<Edge> repeated_matching(int n, int copies, Rng& rng) {
  std::vector<int> rights(as_size(n));
  for (int v = 0; v < n; ++v) rights[as_size(v)] = v;
  rng.shuffle(rights);
  std::vector<Edge> edges;
  for (int u = 0; u < n; ++u) {
    for (int c = 0; c < copies; ++c) {
      edges.push_back(Edge{u, rights[as_size(u)]});
    }
  }
  return edges;
}

POPS_TEST(EveryBackendColorsOddDegreeMultigraphsWithHeavyMultiEdges) {
  // Odd degrees make euler-split peel a perfect matching. With a
  // tripled matching in the graph, a matched left vertex keeps parallel
  // edges to its mate, so the peel's walk often steps straight back
  // into a right vertex it already reached and must erase that loop.
  Rng rng(28);
  for (const auto algorithm : kAllColoringAlgorithms) {
    for (const int n : {1, 2, 4, 16, 64}) {
      for (const int copies : {1, 3, 5}) {
        const BipartiteMultigraph g =
            multigraph(n, repeated_matching(n, copies, rng));
        const EdgeColoring coloring = color_edges(g, algorithm);
        EXPECT_EQ(coloring.num_colors, copies);
        EXPECT_TRUE(is_valid_edge_coloring(g, coloring));
      }
      // A tripled matching plus a random 2-regular multigraph (degree
      // 5: one peel, then splits), listed both sorted by left vertex
      // and shuffled.
      std::vector<Edge> edges = repeated_matching(n, 3, rng);
      const BipartiteMultigraph cycles = random_regular(n, 2, rng);
      edges.insert(edges.end(), cycles.edges().begin(),
                   cycles.edges().end());
      for (int order = 0; order < 2; ++order) {
        if (order == 1) rng.shuffle(edges);
        const BipartiteMultigraph g = multigraph(n, edges);
        const EdgeColoring coloring = color_edges(g, algorithm);
        EXPECT_EQ(coloring.num_colors, 5);
        EXPECT_TRUE(is_valid_edge_coloring(g, coloring));
      }
    }
  }
}

POPS_TEST(EulerSplitColoringDependsOnlyOnItsInput) {
  // The matching peel's walk is random, but seeded from its range: a
  // warm colorer that colored other graphs first must reproduce a fresh
  // colorer's coloring exactly.
  Rng rng(29);
  const BipartiteMultigraph input = random_regular(24, 7, rng);
  EdgeColoring fresh;
  EdgeColorer().color(input, ColoringAlgorithm::kEulerSplit, fresh);
  EXPECT_TRUE(is_valid_edge_coloring(input, fresh));

  EdgeColorer warm;
  EdgeColoring out;
  for (const auto& [n, degree] :
       {std::pair{24, 7}, {40, 5}, {8, 3}, {24, 9}, {3, 3}}) {
    warm.color(random_regular(n, degree, rng),
               ColoringAlgorithm::kEulerSplit, out);
  }
  warm.color(input, ColoringAlgorithm::kEulerSplit, out);
  EXPECT_TRUE(out.color == fresh.color);
  EXPECT_EQ(out.num_colors, fresh.num_colors);
}

// A regular graph's edges as color_regular takes them: sorted by left
// vertex, each left vertex's edges in id order (the order color()
// sorts a graph into).
std::vector<SortedEdge> sorted_by_left(const BipartiteMultigraph& graph) {
  const int degree = graph.max_degree();
  std::vector<SortedEdge> list(as_size(graph.edge_count()));
  std::vector<int> next(as_size(graph.left_count()));
  for (int u = 0; u < graph.left_count(); ++u) next[as_size(u)] = u * degree;
  for (int e = 0; e < graph.edge_count(); ++e) {
    list[as_size(next[as_size(graph.edge(e).left)]++)] =
        SortedEdge{e, graph.edge(e).right};
  }
  return list;
}

POPS_TEST(ColorRegularMatchesColorOnTheSameGraph) {
  // color() pads and sorts a graph into the list color_regular takes,
  // then runs the same kernel: both entries must give one coloring. Odd
  // degrees make the peel compact each position's id and right vertex
  // together; the H of a group-block permutation is d parallel copies
  // of one matching; and a colorer that colored other graphs first (in
  // either entry) must match a fresh colorer.
  Rng rng(38);
  std::vector<BipartiteMultigraph> graphs;
  for (const int n : {1, 2, 5, 16}) {
    for (const int degree : {1, 2, 3, 5, 7, 8, 9, 12}) {
      graphs.push_back(random_regular(n, degree, rng));
      std::vector<Edge> edges = repeated_matching(n, degree, rng);
      rng.shuffle(edges);
      graphs.push_back(multigraph(n, edges));
    }
  }
  for (const auto& [d, g] : {std::pair{3, 8}, {5, 4}, {7, 7}, {9, 3}}) {
    const Topology topo(d, g);
    std::vector<Permutation> within;
    for (int j = 0; j < g; ++j) within.push_back(Permutation::random(d, rng));
    const Permutation pi =
        group_block(d, g, Permutation::random(g, rng), within);
    BipartiteMultigraph h(g, g);
    for (int p = 0; p < topo.processor_count(); ++p) {
      h.add_edge(topo.group_of(p), topo.group_of(pi(p)));
    }
    graphs.push_back(std::move(h));
  }
  EdgeColorer warm;
  EdgeColoring by_graph;
  EdgeColoring by_list;
  for (const BipartiteMultigraph& graph : graphs) {
    const int degree = graph.max_degree();
    const std::vector<SortedEdge> list = sorted_by_left(graph);
    warm.color(graph, ColoringAlgorithm::kEulerSplit, by_graph);
    warm.color_regular(list, degree, by_list);
    EXPECT_TRUE(is_valid_edge_coloring(graph, by_list));
    EXPECT_EQ(by_list.num_colors, degree);
    EXPECT_TRUE(by_list.color == by_graph.color);
    EdgeColoring fresh;
    EdgeColorer().color_regular(list, degree, fresh);
    EXPECT_TRUE(fresh.color == by_graph.color);
    EXPECT_TRUE(color_edges(graph, ColoringAlgorithm::kEulerSplit).color ==
                by_graph.color);
  }
  warm.color_regular(Span<const SortedEdge>(), 3, by_list);
  EXPECT_EQ(by_list.num_colors, 0);
  EXPECT_TRUE(by_list.color.empty());
}

POPS_TEST(EulerSplitRejectsAPaddedSizePastInt) {
  // delta * max side = 65537 * 65536 does not fit an int: the colorer
  // must refuse before it sizes any padded array.
  EXPECT_ABORTS_WITH(
      {
        BipartiteMultigraph g(1, 65536);
        for (int e = 0; e < 65537; ++e) g.add_edge(0, 0);
        color_edges(g, ColoringAlgorithm::kEulerSplit);
      },
      "overflows int");
}

POPS_TEST(EveryBackendColorsIrregularGraphs) {
  // Irregular bipartite multigraphs still get exactly Delta colors.
  Rng rng(22);
  for (const auto algorithm : kAllColoringAlgorithms) {
    for (int trial = 0; trial < 10; ++trial) {
      BipartiteMultigraph g(6, 9);
      const int edges = 5 + rng.next_below(30);
      for (int e = 0; e < edges; ++e) {
        g.add_edge(rng.next_below(6), rng.next_below(9));
      }
      const EdgeColoring coloring = color_edges(g, algorithm);
      EXPECT_EQ(coloring.num_colors, g.max_degree());
      EXPECT_TRUE(is_valid_edge_coloring(g, coloring));
    }
  }
}

// The group multigraph H of a permutation given as its image array:
// one edge per packet, source group to destination group, added source
// by source as the engine adds them (so sorted by left vertex).
std::vector<Edge> group_edges(const Topology& topo,
                              const std::vector<int>& images) {
  std::vector<Edge> edges;
  for (int source = 0; source < topo.processor_count(); ++source) {
    edges.push_back(Edge{topo.group_of(source),
                         topo.group_of(images[as_size(source)])});
  }
  return edges;
}

// A phase as the traffic server routes it: `demands` random requests
// (distinct sources, distinct destinations), every idle source padded
// onto the next unused destination. With few demands H is mostly
// diagonal: most groups send every packet to themselves.
std::vector<int> padded_phase(int n, int demands, Rng& rng) {
  std::vector<int> sources(as_size(n));
  std::vector<int> destinations(as_size(n));
  for (int p = 0; p < n; ++p) {
    sources[as_size(p)] = p;
    destinations[as_size(p)] = p;
  }
  rng.shuffle(sources);
  rng.shuffle(destinations);
  std::vector<int> image(as_size(n), -1);
  std::vector<char> used(as_size(n), 0);
  for (int k = 0; k < demands; ++k) {
    image[as_size(sources[as_size(k)])] = destinations[as_size(k)];
    used[as_size(destinations[as_size(k)])] = 1;
  }
  int next_free = 0;
  for (int& target : image) {
    if (target != -1) continue;
    while (used[as_size(next_free)] != 0) ++next_free;
    target = next_free;
    used[as_size(next_free)] = 1;
  }
  return image;
}

// Colors the multigraph with `edges` with every backend, once with the
// edges in the given order and once shuffled, on one warm colorer per
// backend (as the engine and the server hold them): every coloring
// must be proper with exactly max_degree colors.
class EveryBackend {
 public:
  void expect_colors(int left_count, int right_count,
                     std::vector<Edge> edges, Rng& rng) {
    for (int order = 0; order < 2; ++order) {
      if (order == 1) rng.shuffle(edges);
      BipartiteMultigraph graph(left_count, right_count);
      for (const Edge& e : edges) graph.add_edge(e.left, e.right);
      for (std::size_t k = 0; k < kBackends; ++k) {
        colorers_[k].color(graph, kAllColoringAlgorithms[k], out_[k]);
        EXPECT_EQ(out_[k].num_colors, graph.max_degree());
        EXPECT_TRUE(is_valid_edge_coloring(graph, out_[k]));
      }
    }
  }

 private:
  static constexpr std::size_t kBackends =
      std::size(kAllColoringAlgorithms);
  EdgeColorer colorers_[kBackends];
  EdgeColoring out_[kBackends];
};

POPS_TEST(EveryBackendColorsTheGroupMultigraphOfRandomPermutations) {
  // Power-of-two d (pure Euler splits: the benchmark shapes 32/32,
  // 8/64, 16/8) and d with odd factors (matching peels between splits).
  Rng rng(25);
  EveryBackend backends;
  for (const auto& [d, g] : {std::pair{32, 32}, {8, 64}, {16, 8}, {12, 12},
                             {24, 8}, {31, 32}, {3, 8}}) {
    const Topology topo(d, g);
    for (int trial = 0; trial < 3; ++trial) {
      const Permutation pi =
          Permutation::random(topo.processor_count(), rng);
      backends.expect_colors(g, g, group_edges(topo, pi.images()), rng);
    }
  }
}

POPS_TEST(EveryBackendColorsMostlyDiagonalPaddedPhases) {
  // serve-zipf's shape: POPS(16, 8) phases of a few to all 128 demands.
  Rng rng(26);
  EveryBackend backends;
  const Topology topo(16, 8);
  for (const int demands : {0, 1, 5, 20, 40, 128}) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<int> image =
          padded_phase(topo.processor_count(), demands, rng);
      backends.expect_colors(8, 8, group_edges(topo, image), rng);
    }
  }
}

POPS_TEST(EveryBackendColorsPaddedWindowTraffic) {
  // Window traffic of the traffic server's shape: 128 + 128 processors,
  // about 170 demands, degree capped at h. Euler-split pads it to
  // h-regular first.
  Rng rng(27);
  EveryBackend backends;
  const int n = 128;
  for (int h = 1; h <= 8; ++h) {
    std::vector<int> sends(as_size(n), 0);
    std::vector<int> receives(as_size(n), 0);
    std::vector<Edge> edges;
    // A hot sender fixes the degree at exactly h.
    for (int k = 0; k < h; ++k) {
      edges.push_back(Edge{0, k});
      ++sends[0];
      ++receives[as_size(k)];
    }
    for (int attempt = 0; attempt < 400 && edges.size() < 170; ++attempt) {
      const int source = rng.next_below(n);
      // A hot destination group of 8 takes half the traffic.
      const int destination =
          attempt % 2 == 0 ? rng.next_below(8) : rng.next_below(n);
      if (sends[as_size(source)] == h ||
          receives[as_size(destination)] == h) {
        continue;
      }
      edges.push_back(Edge{source, destination});
      ++sends[as_size(source)];
      ++receives[as_size(destination)];
    }
    backends.expect_colors(n, n, edges, rng);
  }
}

POPS_TEST(EveryBackendHasFlatScratchAcrossSameShapedGraphs) {
  // The flatness contract: after one warm-up coloring, repeated
  // colorings of same-shaped graphs never grow any colorer-owned
  // scratch, for both backends. Degree 6 runs both euler-split steps:
  // Euler splits at degrees 6 and 2, a matching peel at 3.
  for (const auto algorithm : kAllColoringAlgorithms) {
    Rng rng(31);
    EdgeColorer colorer;
    EdgeColoring out;
    {
      const BipartiteMultigraph warm_up = random_regular(12, 6, rng);
      colorer.color(warm_up, algorithm, out);
    }
    const std::size_t warm = colorer.scratch_capacity();
    EXPECT_TRUE(warm > 0);
    for (int trial = 0; trial < 1000; ++trial) {
      const BipartiteMultigraph g = random_regular(12, 6, rng);
      colorer.color(g, algorithm, out);
      EXPECT_EQ(colorer.scratch_capacity(), warm);
    }
    // The soak is about capacities; spot-check validity once at the
    // end so a silently-broken kernel cannot pass as "flat".
    const BipartiteMultigraph last = random_regular(12, 6, rng);
    colorer.color(last, algorithm, out);
    EXPECT_TRUE(is_valid_edge_coloring(last, out));
    EXPECT_EQ(colorer.scratch_capacity(), warm);
  }
}

POPS_TEST(ReserveSizesEverythingItsBackendAndSpreadTouch) {
  // reserve(g, d, algorithm) sizes every table that backend touches
  // when it colors H of POPS(d, g), all n packets (d-regular) or a
  // random subset (irregular), through color() and, for euler-split on
  // a full H, through color_regular(), and only those: the other
  // backend still grows the colorer. reserve_spread(g) then sizes every table
  // spread() touches on such an H onto g classes (when g > d), on 3/8,
  // where d does not divide g and the swaps run, as on partial graphs.
  Rng rng(28);
  for (const auto& [d, g] : {std::pair{4, 4}, {3, 8}, {8, 3}, {2, 8},
                             {5, 3}, {16, 16}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    std::vector<BipartiteMultigraph> graphs;
    for (int trial = 0; trial < 24; ++trial) {
      const Permutation pi = Permutation::random(n, rng);
      const int keep = trial % 2 == 0 ? n : rng.next_below(n + 1);
      BipartiteMultigraph h(g, g);
      for (int source = 0; source < n; ++source) {
        if (source >= keep && rng.next_below(2) == 0) continue;
        h.add_edge(topo.group_of(source), topo.group_of(pi(source)));
      }
      graphs.push_back(std::move(h));
    }
    for (std::size_t k = 0; k < std::size(kAllColoringAlgorithms); ++k) {
      const ColoringAlgorithm algorithm = kAllColoringAlgorithms[k];
      EdgeColorer colorer;
      EdgeColoring out;
      colorer.reserve(g, d, algorithm);
      const std::size_t reserved = colorer.scratch_capacity();
      EXPECT_TRUE(reserved > 0);
      for (const BipartiteMultigraph& h : graphs) {
        colorer.color(h, algorithm, out);
        EXPECT_TRUE(is_valid_edge_coloring(h, out));
        EXPECT_EQ(colorer.scratch_capacity(), reserved);
        // The list entry, on every full (d-regular) H.
        if (algorithm != ColoringAlgorithm::kEulerSplit ||
            h.edge_count() != n) {
          continue;
        }
        const std::vector<SortedEdge> list = sorted_by_left(h);
        colorer.color_regular(list, d, out);
        EXPECT_TRUE(is_valid_edge_coloring(h, out));
        EXPECT_EQ(colorer.scratch_capacity(), reserved);
      }
      const ColoringAlgorithm other = kAllColoringAlgorithms[1 - k];
      EdgeColorer other_colorer;
      other_colorer.reserve(g, d, algorithm);
      other_colorer.color(graphs.front(), other, out);
      EXPECT_TRUE(other_colorer.scratch_capacity() > reserved);
      if (g <= d) continue;
      colorer.reserve_spread(g);
      const std::size_t spread_reserved = colorer.scratch_capacity();
      for (const BipartiteMultigraph& h : graphs) {
        colorer.color(h, algorithm, out);
        colorer.spread(h, g, out);
        EXPECT_TRUE(is_valid_edge_coloring(h, out));
        EXPECT_EQ(colorer.scratch_capacity(), spread_reserved);
      }
    }
  }
}

POPS_TEST(ValidationRejectsBrokenColorings) {
  BipartiteMultigraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  EdgeColoring ok{{0, 1}, 2};
  EXPECT_TRUE(is_valid_edge_coloring(g, ok));

  EdgeColoring clash{{0, 0}, 2};  // both edges at left 0 share a color
  EXPECT_FALSE(is_valid_edge_coloring(g, clash));

  EdgeColoring out_of_range{{0, 2}, 2};
  EXPECT_FALSE(is_valid_edge_coloring(g, out_of_range));

  EdgeColoring wrong_size{{0}, 2};
  EXPECT_FALSE(is_valid_edge_coloring(g, wrong_size));
}

std::vector<int> class_sizes(const EdgeColoring& coloring) {
  std::vector<int> sizes(as_size(coloring.num_colors), 0);
  for (const int c : coloring.color) ++sizes[as_size(c)];
  return sizes;
}

POPS_TEST(SpreadColorsBalancesClassSizes) {
  Rng rng(23);
  // d-regular on g+g vertices spread onto g classes of exactly d edges
  // each — the router's fair-distribution shape (d < g).
  for (const auto& [n, degree] : {std::pair{8, 3}, {16, 5}, {9, 9}}) {
    const BipartiteMultigraph g = random_regular(n, degree, rng);
    const EdgeColoring base = color_edges(g);
    const EdgeColoring spread = spread_colors(g, base, n);
    EXPECT_EQ(spread.num_colors, n);
    EXPECT_TRUE(is_valid_edge_coloring(g, spread));
    for (const int size : class_sizes(spread)) {
      EXPECT_EQ(size, degree);
    }
  }

  // The empty classes run out before the surplus is placed: three
  // classes of 5 edges keep 3 each, and the one empty class takes
  // surplus from one of them only, so the swaps must finish the job
  // (15 edges end as 4/4/4/3).
  {
    const BipartiteMultigraph g = random_regular(5, 3, rng);
    const EdgeColoring spread = spread_colors(g, color_edges(g), 4);
    EXPECT_TRUE(is_valid_edge_coloring(g, spread));
    const std::vector<int> sizes = class_sizes(spread);
    const auto [smallest, largest] =
        std::minmax_element(sizes.begin(), sizes.end());
    EXPECT_TRUE(*largest - *smallest <= 1);
  }

  // A restricted coloring: on POPS(5, 3), H's 5-coloring restricted
  // to the colors [3, 5) and shifted down is a proper 2-coloring of
  // that subgraph; spread onto 3 classes, each holds exactly 2 edges.
  for (const auto algorithm : kAllColoringAlgorithms) {
    const BipartiteMultigraph h = random_regular(3, 5, rng);
    const EdgeColoring full = color_edges(h, algorithm);
    BipartiteMultigraph h_q(3, 3);
    EdgeColoring batch;
    batch.num_colors = 2;
    for (int e = 0; e < h.edge_count(); ++e) {
      const int c = full.color[as_size(e)];
      if (c < 3) continue;
      h_q.add_edge(h.edge(e).left, h.edge(e).right);
      batch.color.push_back(c - 3);
    }
    const EdgeColoring spread = spread_colors(h_q, batch, 3);
    EXPECT_TRUE(is_valid_edge_coloring(h_q, spread));
    for (const int size : class_sizes(spread)) {
      EXPECT_EQ(size, 2);
    }
  }
}

POPS_TEST(SpreadColorsHandlesMoreClassesThanEdges) {
  // num_classes larger than the edge count: balance means every class
  // holds at most one edge (some classes stay empty).
  BipartiteMultigraph g(3, 3);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const EdgeColoring base = color_edges(g);
  EXPECT_EQ(base.num_colors, 2);
  const EdgeColoring spread = spread_colors(g, base, 7);
  EXPECT_EQ(spread.num_colors, 7);
  EXPECT_TRUE(is_valid_edge_coloring(g, spread));
  std::vector<int> sizes(as_size(7), 0);
  for (const int c : spread.color) ++sizes[as_size(c)];
  for (const int size : sizes) {
    EXPECT_TRUE(size <= 1);
  }

  // Degenerate corner: more classes than edges on an empty graph.
  const BipartiteMultigraph empty(2, 2);
  const EdgeColoring none = spread_colors(empty, color_edges(empty), 3);
  EXPECT_EQ(none.num_colors, 3);
  EXPECT_TRUE(none.color.empty());
}

POPS_TEST(SpreadColorsKeepsAlreadyBalancedColorings) {
  Rng rng(24);
  const BipartiteMultigraph g = random_regular(8, 8, rng);
  const EdgeColoring base = color_edges(g);
  const EdgeColoring spread = spread_colors(g, base, 8);
  EXPECT_TRUE(is_valid_edge_coloring(g, spread));
  std::vector<int> sizes(as_size(8), 0);
  for (const int c : spread.color) ++sizes[as_size(c)];
  for (const int size : sizes) {
    EXPECT_EQ(size, 8);
  }
}

}  // namespace
}  // namespace pops
