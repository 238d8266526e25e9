#include "graph/validation.h"

#include <vector>

namespace pops {

bool is_valid_edge_coloring(const BipartiteMultigraph& graph,
                            const EdgeColoring& coloring) {
  if (static_cast<int>(coloring.color.size()) != graph.edge_count()) {
    return false;
  }
  for (const int c : coloring.color) {
    if (c < 0 || c >= coloring.num_colors) return false;
  }
  // seen[vertex * num_colors + c]: left vertices first, then right.
  const std::size_t colors = as_size(coloring.num_colors);
  std::vector<char> seen(
      as_size(graph.left_count() + graph.right_count()) * colors, 0);
  for (int e = 0; e < graph.edge_count(); ++e) {
    const std::size_t c = as_size(coloring.color[as_size(e)]);
    for (const int vertex :
         {graph.edge(e).left, graph.left_count() + graph.edge(e).right}) {
      char& slot = seen[as_size(vertex) * colors + c];
      if (slot != 0) return false;
      slot = 1;
    }
  }
  return true;
}

}  // namespace pops
