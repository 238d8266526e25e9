// Bipartite multigraph with stable edge ids.
//
// The paper (Mei & Rizzi, IPDPS 2002) reduces permutation routing on
// POPS(d,g) to edge coloring a d-regular bipartite multigraph whose
// vertices are the g source groups and g destination groups and whose
// edges are the packets. Parallel edges are the common case (many
// packets share a group pair), so edges are first-class objects
// addressed by the id returned from add_edge.
#pragma once

#include <vector>

#include "support/check.h"

namespace pops {

struct Edge {
  int left;
  int right;
};

class BipartiteMultigraph {
 public:
  BipartiteMultigraph(int left_count, int right_count)
      : left_degree_(as_size(left_count), 0),
        right_degree_(as_size(right_count), 0) {}

  /// Rebuilds the graph in place: drops every edge and resizes the
  /// vertex sets, keeping all array capacities. A graph that is reset
  /// to the same shape and refilled with the same number of edges does
  /// not allocate — this is what lets the RoutingEngine reuse one
  /// multigraph across permutations.
  void reset(int left_count, int right_count) {
    edges_.clear();
    left_degree_.assign(as_size(left_count), 0);
    right_degree_.assign(as_size(right_count), 0);
  }

  /// Pre-sizes the edge array: refills with at most `edges` edges never
  /// allocate. RoutingEngine::reserve_h_relation sizes its traffic
  /// graph with this, so no relation within its bounds grows the graph.
  void reserve_edges(int edges) {
    POPS_CHECK(edges >= 0, "reserve_edges needs a nonnegative capacity");
    edges_.reserve(as_size(edges));
  }

  /// Adds an edge and returns its id (ids are dense, in insertion
  /// order).
  int add_edge(int left, int right) {
    POPS_CHECK(left >= 0 && left < left_count(),
               "add_edge: left vertex out of range");
    POPS_CHECK(right >= 0 && right < right_count(),
               "add_edge: right vertex out of range");
    const int id = edge_count();
    edges_.push_back(Edge{left, right});
    ++left_degree_[as_size(left)];
    ++right_degree_[as_size(right)];
    return id;
  }

  int left_count() const { return static_cast<int>(left_degree_.size()); }
  int right_count() const {
    return static_cast<int>(right_degree_.size());
  }
  int edge_count() const { return static_cast<int>(edges_.size()); }

  const Edge& edge(int id) const { return edges_[as_size(id)]; }
  const std::vector<Edge>& edges() const { return edges_; }

  int left_degree(int left) const { return left_degree_[as_size(left)]; }
  int right_degree(int right) const {
    return right_degree_[as_size(right)];
  }

  /// Maximum degree over both sides (0 for an empty graph).
  int max_degree() const;

  /// Total capacity of the edge and degree arrays, in elements — the
  /// zero-allocation tests compare this across reset/refill cycles.
  std::size_t scratch_capacity() const {
    return edges_.capacity() + left_degree_.capacity() +
           right_degree_.capacity();
  }

  /// True when every left vertex and every right vertex has the same
  /// degree (vacuously true for the empty graph).
  bool is_regular() const;

 private:
  std::vector<Edge> edges_;
  std::vector<int> left_degree_;
  std::vector<int> right_degree_;
};

}  // namespace pops
