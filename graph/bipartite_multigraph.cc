#include "graph/bipartite_multigraph.h"

#include <algorithm>

namespace pops {

int BipartiteMultigraph::max_degree() const {
  int degree = 0;
  for (int l = 0; l < left_count(); ++l) {
    degree = std::max(degree, left_degree(l));
  }
  for (int r = 0; r < right_count(); ++r) {
    degree = std::max(degree, right_degree(r));
  }
  return degree;
}

void CsrAdjacency::start_build(int left_count, int right_count) {
  left_count_ = left_count;
  vertex_count_ = left_count + right_count;
  offset_.assign(as_size(vertex_count_ + 1), 0);
}

// offset_[v + 1] holds vertex v's incidence count on entry; turns the
// counts into offsets, sizes the incidence array, and primes the
// per-vertex cursors for the fill pass.
void CsrAdjacency::finish_build(std::size_t incidence_size) {
  int* offset = offset_.data();
  for (int v = 0; v < vertex_count_; ++v) offset[v + 1] += offset[v];
  incident_.resize(incidence_size);
  cursor_.assign(offset_.begin(), offset_.end() - 1);
}

void CsrAdjacency::build(const BipartiteMultigraph& graph) {
  start_build(graph.left_count(), graph.right_count());
  const Edge* edges = graph.edges().data();
  const int m = graph.edge_count();
  int* offset = offset_.data();
  for (int e = 0; e < m; ++e) {
    ++offset[edges[e].left + 1];
    ++offset[left_count_ + edges[e].right + 1];
  }
  finish_build(2 * as_size(m));
  int* cursor = cursor_.data();
  int* incident = incident_.data();
  for (int e = 0; e < m; ++e) {
    incident[cursor[edges[e].left]++] = e;
    incident[cursor[left_count_ + edges[e].right]++] = e;
  }
}

void CsrAdjacency::build_subset(Span<const int> edge_ids,
                                Span<const Edge> edges, int left_count,
                                int right_count) {
  start_build(left_count, right_count);
  const int* ids = edge_ids.data();
  const Edge* endpoint = edges.data();
  const int count = edge_ids.count();
  int* offset = offset_.data();
  for (int i = 0; i < count; ++i) {
    const Edge& e = endpoint[ids[i]];
    ++offset[e.left + 1];
    ++offset[left_count_ + e.right + 1];
  }
  finish_build(2 * as_size(count));
  int* cursor = cursor_.data();
  int* incident = incident_.data();
  for (int i = 0; i < count; ++i) {
    const int id = ids[i];
    const Edge& e = endpoint[id];
    incident[cursor[e.left]++] = id;
    incident[cursor[left_count_ + e.right]++] = id;
  }
}

bool BipartiteMultigraph::is_regular() const {
  if (edge_count() == 0) {
    for (int l = 0; l < left_count(); ++l) {
      if (left_degree(l) != 0) return false;
    }
    for (int r = 0; r < right_count(); ++r) {
      if (right_degree(r) != 0) return false;
    }
    return true;
  }
  const int degree = left_degree(0);
  for (int l = 0; l < left_count(); ++l) {
    if (left_degree(l) != degree) return false;
  }
  for (int r = 0; r < right_count(); ++r) {
    if (right_degree(r) != degree) return false;
  }
  return true;
}

}  // namespace pops
