#include "graph/bipartite_multigraph.h"
#include "tests/testing.h"

namespace pops {
namespace {

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

}  // namespace
}  // namespace pops
