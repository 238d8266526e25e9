#include "graph/bipartite_multigraph.h"
#include "graph/euler_split.h"
#include "graph/hopcroft_karp.h"
#include "support/prng.h"
#include "tests/graph_util.h"
#include "tests/testing.h"

namespace pops {
namespace {

using testing::random_regular;

POPS_TEST(MultigraphBasics) {
  BipartiteMultigraph g(3, 2);
  EXPECT_EQ(g.left_count(), 3);
  EXPECT_EQ(g.right_count(), 2);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.max_degree(), 0);
  EXPECT_TRUE(g.is_regular());

  const int e0 = g.add_edge(0, 1);
  const int e1 = g.add_edge(0, 1);  // parallel edge
  const int e2 = g.add_edge(2, 0);
  EXPECT_EQ(e0, 0);
  EXPECT_EQ(e1, 1);
  EXPECT_EQ(e2, 2);
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_EQ(g.left_degree(0), 2);
  EXPECT_EQ(g.left_degree(1), 0);
  EXPECT_EQ(g.right_degree(1), 2);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_FALSE(g.is_regular());
  EXPECT_EQ(g.edge(1).left, 0);
  EXPECT_EQ(g.edge(2).right, 0);

  // reset() drops the edges and their degree counts, and may reshape.
  g.reset(2, 4);
  EXPECT_EQ(g.left_count(), 2);
  EXPECT_EQ(g.right_count(), 4);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.max_degree(), 0);
  g.add_edge(1, 3);
  EXPECT_EQ(g.left_degree(0), 0);
  EXPECT_EQ(g.left_degree(1), 1);
  EXPECT_EQ(g.right_degree(3), 1);
}

POPS_TEST(EulerSplitHalvesEvenRegularGraphs) {
  Rng rng(3);
  for (const int n : {1, 2, 8, 32}) {
    for (const int degree : {2, 4, 8, 16}) {
      const BipartiteMultigraph g = random_regular(n, degree, rng);
      const EulerSplitResult split = euler_split(g);
      EXPECT_EQ(split.side.size(), as_size(g.edge_count()));
      std::vector<int> left_zero(as_size(n), 0);
      std::vector<int> right_zero(as_size(n), 0);
      for (int e = 0; e < g.edge_count(); ++e) {
        EXPECT_TRUE(split.side[as_size(e)] == 0 ||
                    split.side[as_size(e)] == 1);
        if (split.side[as_size(e)] == 0) {
          ++left_zero[as_size(g.edge(e).left)];
          ++right_zero[as_size(g.edge(e).right)];
        }
      }
      for (int v = 0; v < n; ++v) {
        EXPECT_EQ(left_zero[as_size(v)], degree / 2);
        EXPECT_EQ(right_zero[as_size(v)], degree / 2);
      }
    }
  }
}

POPS_TEST(EulerSplitBalancesOddDegrees) {
  // A 3-regular multigraph: every vertex must split 2/1 or 1/2.
  Rng rng(5);
  const int n = 16;
  const BipartiteMultigraph g = random_regular(n, 3, rng);
  const EulerSplitResult split = euler_split(g);
  std::vector<int> left_zero(as_size(n), 0);
  std::vector<int> right_zero(as_size(n), 0);
  for (int e = 0; e < g.edge_count(); ++e) {
    if (split.side[as_size(e)] == 0) {
      ++left_zero[as_size(g.edge(e).left)];
      ++right_zero[as_size(g.edge(e).right)];
    }
  }
  for (int v = 0; v < n; ++v) {
    EXPECT_TRUE(left_zero[as_size(v)] == 1 || left_zero[as_size(v)] == 2);
    EXPECT_TRUE(right_zero[as_size(v)] == 1 ||
                right_zero[as_size(v)] == 2);
  }
}

POPS_TEST(EulerSplitEmptyGraph) {
  const BipartiteMultigraph g(4, 4);
  const EulerSplitResult split = euler_split(g);
  EXPECT_TRUE(split.side.empty());
  EXPECT_EQ(split.half_count(0), 0);
}

POPS_TEST(MaximumMatchingIsPerfectOnRegularGraphs) {
  Rng rng(9);
  for (const int n : {1, 4, 16, 64}) {
    for (const int degree : {1, 3, 8}) {
      const BipartiteMultigraph g = random_regular(n, degree, rng);
      const MatchingResult matching = maximum_matching(g);
      EXPECT_EQ(matching.size, n);
      EXPECT_TRUE(matching.is_perfect(g));
      std::vector<bool> right_used(as_size(n), false);
      for (int l = 0; l < n; ++l) {
        const int e = matching.left_edge[as_size(l)];
        EXPECT_TRUE(e >= 0);
        EXPECT_EQ(g.edge(e).left, l);
        EXPECT_FALSE(right_used[as_size(g.edge(e).right)]);
        right_used[as_size(g.edge(e).right)] = true;
      }
    }
  }
}

POPS_TEST(MaximumMatchingOnIrregularGraph) {
  // Star: left 0 connected to all rights. Maximum matching is 1.
  BipartiteMultigraph star(3, 3);
  star.add_edge(0, 0);
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  EXPECT_EQ(maximum_matching(star).size, 1);

  // Path-ish graph with a known maximum matching of 2.
  BipartiteMultigraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_EQ(maximum_matching(g).size, 2);

  // Empty graph.
  EXPECT_EQ(maximum_matching(BipartiteMultigraph(5, 2)).size, 0);
}

}  // namespace
}  // namespace pops
