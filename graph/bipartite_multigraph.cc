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
