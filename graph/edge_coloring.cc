#include "graph/edge_coloring.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "support/prng.h"

namespace pops {
namespace {

// The divide-and-conquer stack holds at most one pending range per
// halving of the degree, so this covers every int degree.
constexpr int kDncStackCapacity = 64;

}  // namespace

std::string to_string(ColoringAlgorithm algorithm) {
  switch (algorithm) {
    case ColoringAlgorithm::kAlternatingPath:
      return "alternating-path";
    case ColoringAlgorithm::kEulerSplit:
      return "euler-split";
  }
  POPS_CHECK(false, "unknown ColoringAlgorithm");
  return "";
}

void EdgeColorer::color(const BipartiteMultigraph& graph,
                        ColoringAlgorithm algorithm, EdgeColoring& out) {
  const int delta = graph.max_degree();
  if (delta == 0) {
    out.color.clear();
    out.num_colors = 0;
    return;
  }
  switch (algorithm) {
    case ColoringAlgorithm::kAlternatingPath:
      color_alternating(graph, delta, out);
      return;
    case ColoringAlgorithm::kEulerSplit:
      color_dnc(graph, delta, out);
      return;
  }
  POPS_CHECK(false, "unknown ColoringAlgorithm");
}

// ---------------------------------------------------------------------
// Euler-split divide and conquer on flat scratch.
//
// The kernel, color_listed, takes a delta-regular multigraph on
// vertices + vertices vertices as a list sorted by left vertex: each
// position holds its edge's id and right vertex, and left vertex u owns
// positions [u * delta, (u + 1) * delta). Ids at or past the real edge
// count are padding and get no color. Every step works on a range
// [lo, hi) of a list that is k-regular on the padded vertex set and
// keeps that order: left vertex u owns positions [lo + u * k,
// lo + (u + 1) * k). Even splits write the two halves in that order,
// matching peels compact the range stably, and an explicit DncRange
// stack replaces the recursion.
//
// color_regular hands the kernel the caller's list as it is. color()
// first pads the graph to delta-regular on max(L, R) + max(L, R)
// vertices (dummy edges get ids >= edge_count) and counting-sorts it
// by left vertex into dc_lists_[1].
// ---------------------------------------------------------------------

void EdgeColorer::color_regular(Span<const SortedEdge> edges, int degree,
                                EdgeColoring& out) {
  POPS_CHECK(degree >= 1 && edges.count() % degree == 0,
             "color_regular: the list does not hold degree edges per "
             "left vertex");
  if (edges.empty()) {
    out.color.clear();
    out.num_colors = 0;
    return;
  }
  color_listed(edges.data(), edges.count() / degree, degree, edges.count(),
               out);
}

void EdgeColorer::color_dnc(const BipartiteMultigraph& graph, int delta,
                            EdgeColoring& out) {
  const int n = std::max(graph.left_count(), graph.right_count());
  const int m = graph.edge_count();
  const long long padded = static_cast<long long>(delta) * n;
  POPS_CHECK(padded <= std::numeric_limits<int>::max(),
             "regularize: delta * max side overflows int");
  const int m_pad = static_cast<int>(padded);

  // Stable counting sort by left vertex: left u's real edges in id
  // order, then its padding. Every left vertex ends with exactly delta
  // edges, so left u's block starts at u * delta.
  dc_lists_[1].resize(as_size(m_pad));
  dc_cursor_.resize(as_size(n));
  dc_deg_right_.assign(as_size(n), 0);
  SortedEdge* list = dc_lists_[1].data();
  int* next = dc_cursor_.data();
  int* deg_right = dc_deg_right_.data();
  for (int left = 0; left < n; ++left) next[left] = left * delta;
  const Edge* src = graph.edges().data();
  for (int e = 0; e < m; ++e) {
    list[next[src[e].left]++] = SortedEdge{e, src[e].right};
    ++deg_right[src[e].right];
  }
  int next_id = m;
  int right = 0;
  for (int left = 0; left < n; ++left) {
    while (next[left] < (left + 1) * delta) {
      while (right < n && deg_right[right] >= delta) ++right;
      POPS_CHECK(right < n,
                 "regularize: right side has no deficit left");
      list[next[left]++] = SortedEdge{next_id++, right};
      ++deg_right[right];
    }
  }
  POPS_CHECK(next_id == m_pad, "regularize: padded edge count mismatch");
  color_listed(list, n, delta, m, out);
}

void EdgeColorer::color_listed(const SortedEdge* list, int vertices, int delta,
                               int real_edges, EdgeColoring& out) {
  const int m_pad = vertices * delta;
  regular_n_ = vertices;
  out.color.assign(as_size(real_edges), -1);
  out.num_colors = delta;
  dc_lists_[0].resize(as_size(m_pad));
  dc_lists_[1].resize(as_size(m_pad));
  dc_partner_.resize(as_size(m_pad) + 1);
  dc_pending_.assign(as_size(vertices), -1);
  dc_match_left_.resize(as_size(vertices));
  dc_match_right_.resize(as_size(vertices));
  dc_walk_.resize(as_size(vertices));
  dc_walk_at_.resize(as_size(vertices));
  SortedEdge* const lists[2] = {dc_lists_[0].data(), dc_lists_[1].data()};

  dc_stack_.reserve(kDncStackCapacity);
  dc_stack_.clear();
  dc_stack_.push_back(DncRange{0, m_pad, delta, 0, list});
  while (!dc_stack_.empty()) {
    const DncRange range = dc_stack_.back();
    dc_stack_.pop_back();
    // The caller's list and dc_lists_[1] both write to dc_lists_[0].
    SortedEdge* const to = range.from == lists[0] ? lists[1] : lists[0];
    if (range.delta == 1) {
      paint(range.from, range.lo, range.hi, range.base, out);
      continue;
    }
    if (range.delta == 2) {
      paint_two(range.from, range.lo, range.hi, range.base, out);
      continue;
    }
    if (range.delta % 2 == 1) {
      // Peel one perfect matching, then continue on the even-degree
      // remainder.
      const int new_hi = peel_matching(range.from, to, range.lo, range.hi,
                                       range.base + range.delta - 1, out);
      dc_stack_.push_back(
          DncRange{range.lo, new_hi, range.delta - 1, range.base, to});
      continue;
    }
    const int mid = split_even(range.from, to, range.lo, range.hi);
    dc_stack_.push_back(DncRange{mid, range.hi, range.delta / 2,
                                 range.base + range.delta / 2, to});
    dc_stack_.push_back(
        DncRange{range.lo, mid, range.delta / 2, range.base, to});
  }
}

namespace {

// Walks the cycles that the left pairs (positions 2j, 2j + 1) and the
// right pairs (`partner`) close, alternating sides along each cycle,
// and calls side(at, mate) once per left pair with the position that
// goes to side 0 and the one that goes to side 1. A walk from pair j
// marks every pair it visits with partner -1 at the pair's even
// position, and closes when it arrives back at position 2j.
template <typename Side>
void walk_cycles(int* partner, int half, Side side) {
  for (int j = 0; j < half; ++j) {
    if (partner[2 * j] < 0) continue;
    int at = 2 * j;  // the side-0 position of the current pair
    do {
      const int mate = at ^ 1;
      side(at, mate);
      const int next = partner[mate];
      partner[at & ~1] = -1;
      at = next;
    } while (at != 2 * j);
  }
}

}  // namespace

// The pairing step of the position-paired Euler partition of the
// k-regular range [lo, hi) of `from`, k even. Positions lo + 2j and
// lo + 2j + 1 lie in one left block: they are left pair j. One pass,
// reading the right vertices in position order, pairs the positions at
// each right vertex through one pending slot per vertex into
// dc_partner_. Every position then has one left and one right partner,
// so the pairs close into cycles that alternate left and right links
// (walk_cycles). Alternating sides along each cycle puts one edge of
// every left pair and of every right pair on each side, so both halves
// are (k/2)-regular.
//
// Positions inside are relative to lo.
void EdgeColorer::pair_at_right(const SortedEdge* from, int lo, int hi) {
  const SortedEdge* edge = from + lo;
  int* partner = partner_at(lo);
  int* pending = dc_pending_.data();
  const int size = hi - lo;
  int right_pairs = 0;
  for (int i = 0; i < size; ++i) {
    int& slot = pending[edge[i].right];
    const int other = slot;
    // Whether an edge opens or closes a pair is a coin flip, so this
    // runs branch-free: `waits` is all ones when the edge opens one. An
    // opening edge finds -1, so it writes its own entry, which its mate
    // overwrites, and partner[-1], which no one reads, and waits in the
    // slot. A closing edge links both ways and frees the slot.
    const int waits = -static_cast<int>(other < 0);
    partner[i] = other;
    partner[other] = i;
    slot = (i & waits) | ~waits;
    right_pairs += 1 + waits;
  }
  POPS_CHECK(right_pairs == size / 2,
             "euler split: odd degree at a right vertex of a regular range");
}

// Splits the k-regular range [lo, hi) of `from`, k even, into `to`:
// left pair j's side-0 edge goes to position lo + j and its side-1 edge
// to lo + (hi - lo) / 2 + j, which keeps every left block contiguous in
// both halves. Returns the first position of the second half.
int EdgeColorer::split_even(const SortedEdge* from, SortedEdge* to, int lo,
                            int hi) {
  pair_at_right(from, lo, hi);
  const int half = (hi - lo) / 2;
  const SortedEdge* edge = from + lo;
  SortedEdge* first = to + lo;
  SortedEdge* second = first + half;
  walk_cycles(partner_at(lo), half, [&](int at, int mate) {
    first[at >> 1] = edge[at];
    second[at >> 1] = edge[mate];
  });
  return lo + half;
}

// Colors the 2-regular range [lo, hi) of `from`: the split's side-0
// edges get color `base` and its side-1 edges `base + 1`, straight from
// the walk, since both halves would be matchings.
void EdgeColorer::paint_two(const SortedEdge* from, int lo, int hi, int base,
                            EdgeColoring& out) {
  pair_at_right(from, lo, hi);
  const int real_edges = as_int(out.color.size());
  const SortedEdge* edge = from + lo;
  int* color = out.color.data();
  walk_cycles(partner_at(lo), (hi - lo) / 2, [&](int at, int mate) {
    if (edge[at].id < real_edges) color[edge[at].id] = base;
    if (edge[mate].id < real_edges) color[edge[mate].id] = base + 1;
  });
}

// Peels one perfect matching off the k-regular range [lo, hi) of `from`
// (a regular bipartite multigraph always has one), colors the matched
// real edges, compacts the rest in order to the front of the same range
// of `to`, and returns the new range end.
//
// Each free left vertex grows the matching by one augmenting path,
// found by the random walk of Goel, Kapralov and Khanna: from the
// current left vertex take a uniformly random position other than its
// matched one; at a free right vertex stop, else go on from that
// vertex's mate. A step back into a right vertex the walk already
// reached erases the loop it closes, so the walk stays a path with
// distinct vertices, and rematching along it adds one pair. The walk
// is seeded from the range bounds alone.
//
// Positions inside are relative to lo.
int EdgeColorer::peel_matching(const SortedEdge* from, SortedEdge* to, int lo,
                               int hi, int color_value, EdgeColoring& out) {
  const int n = regular_n_;
  const int k = (hi - lo) / n;
  const SortedEdge* edge = from + lo;
  int* match_left = dc_match_left_.data();
  int* match_right = dc_match_right_.data();
  int* walk = dc_walk_.data();
  // walk_at[v] is stale unless walk step walk_at[v] < length reaches v,
  // so it never needs clearing.
  int* walk_at = dc_walk_at_.data();
  std::fill(match_left, match_left + n, -1);
  std::fill(match_right, match_right + n, -1);
  Rng rng((static_cast<std::uint64_t>(lo) << 32) |
          static_cast<std::uint32_t>(hi));
  for (int start = 0; start < n; ++start) {
    if (match_left[start] >= 0) continue;
    int length = 0;
    int left = start;
    while (true) {
      const int matched = match_left[left];
      int p = left * k;
      if (matched < 0) {
        p += rng.next_below(k);
      } else {
        p += rng.next_below(k - 1);
        p += static_cast<int>(p >= matched);
      }
      const int right = edge[p].right;
      const int seen = walk_at[right];
      if (seen < length && edge[walk[seen]].right == right) {
        length = seen + 1;  // keep the step into right, drop the loop
      } else {
        walk_at[right] = length;
        walk[length++] = p;
      }
      if (match_right[right] < 0) break;
      left = match_right[right] / k;
    }
    for (int s = 0; s < length; ++s) {
      match_left[walk[s] / k] = walk[s];
      match_right[edge[walk[s]].right] = walk[s];
    }
  }

  const int real_edges = as_int(out.color.size());
  int* color = out.color.data();
  SortedEdge* rest = to + lo;
  int write = 0;
  for (int left = 0; left < n; ++left) {
    const int matched = match_left[left];
    if (edge[matched].id < real_edges) color[edge[matched].id] = color_value;
    const int block_end = (left + 1) * k;
    for (int i = left * k; i < block_end; ++i) {
      if (i != matched) rest[write++] = edge[i];
    }
  }
  return lo + write;
}

// Colors the edges at positions [lo, hi) of `from`, skipping padding
// (ids at or past the real edge count).
void EdgeColorer::paint(const SortedEdge* from, int lo, int hi, int color_value,
                        EdgeColoring& out) const {
  const int real_edges = as_int(out.color.size());
  int* color = out.color.data();
  for (int i = lo; i < hi; ++i) {
    if (from[i].id < real_edges) color[from[i].id] = color_value;
  }
}

// ---------------------------------------------------------------------
// Alternating-path backend (constructive König proof) on reusable flat
// scratch, plus the fair-distribution rebalancer.
// ---------------------------------------------------------------------

void EdgeColorer::color_alternating(const BipartiteMultigraph& graph,
                                    int delta, EdgeColoring& out) {
  out.num_colors = delta;
  out.color.assign(as_size(graph.edge_count()), -1);
  left_slot_.assign(as_size(graph.left_count()) * as_size(delta), -1);
  right_slot_.assign(as_size(graph.right_count()) * as_size(delta), -1);
  // An alternating path visits each vertex at most once.
  path_.reserve(as_size(graph.left_count() + graph.right_count()));
  for (int e = 0; e < graph.edge_count(); ++e) {
    insert_edge(graph, delta, e, out);
  }
}

namespace {

inline int free_color_in(const std::vector<int>& slots, int vertex,
                         int delta) {
  const std::size_t base = as_size(vertex) * as_size(delta);
  for (int c = 0; c < delta; ++c) {
    if (slots[base + as_size(c)] < 0) return c;
  }
  POPS_CHECK(false, "no free color at a vertex with degree < Delta");
  return -1;
}

}  // namespace

void EdgeColorer::insert_edge(const BipartiteMultigraph& graph,
                              int delta, int e, EdgeColoring& out) {
  const int u = graph.edge(e).left;
  const int v = graph.edge(e).right;
  const int alpha = free_color_in(left_slot_, u, delta);
  const int beta = free_color_in(right_slot_, v, delta);
  if (alpha != beta &&
      right_slot_[as_size(v) * as_size(delta) + as_size(alpha)] >= 0) {
    flip_path(graph, delta, v, alpha, beta, out);
  }
  // alpha is now free at both endpoints: at u it always was, and at v
  // either it already was or the flipped path freed it (the path
  // cannot reach u — it would have to arrive there on an alpha edge,
  // which u does not have, and parity rules out arriving on beta).
  assign_color(delta, e, u, v, alpha, out);
}

// Flips the maximal alpha/beta alternating path that starts at right
// vertex v with its alpha edge.
void EdgeColorer::flip_path(const BipartiteMultigraph& graph, int delta,
                            int v, int alpha, int beta,
                            EdgeColoring& out) {
  path_.clear();
  bool on_right = true;
  int vertex = v;
  int want = alpha;
  while (true) {
    const auto& slots = on_right ? right_slot_ : left_slot_;
    const int e = slots[as_size(vertex) * as_size(delta) + as_size(want)];
    if (e < 0) break;
    path_.push_back(e);
    vertex = on_right ? graph.edge(e).left : graph.edge(e).right;
    on_right = !on_right;
    want = want == alpha ? beta : alpha;
  }
  for (const int e : path_) {
    const int c = out.color[as_size(e)];
    left_slot_[as_size(graph.edge(e).left) * as_size(delta) +
               as_size(c)] = -1;
    right_slot_[as_size(graph.edge(e).right) * as_size(delta) +
                as_size(c)] = -1;
  }
  for (const int e : path_) {
    const int c = out.color[as_size(e)] == alpha ? beta : alpha;
    assign_color(delta, e, graph.edge(e).left, graph.edge(e).right, c,
                 out);
  }
}

void EdgeColorer::assign_color(int delta, int e, int u, int v, int c,
                               EdgeColoring& out) {
  const std::size_t left_index = as_size(u) * as_size(delta) + as_size(c);
  const std::size_t right_index =
      as_size(v) * as_size(delta) + as_size(c);
  POPS_CHECK(left_slot_[left_index] < 0 && right_slot_[right_index] < 0,
             "alternating-path: color slot already taken");
  out.color[as_size(e)] = c;
  left_slot_[left_index] = e;
  right_slot_[right_index] = e;
}

void EdgeColorer::spread(const BipartiteMultigraph& graph,
                         int num_classes, EdgeColoring& coloring) {
  POPS_CHECK(num_classes >= std::max(1, coloring.num_colors),
             "spread_colors: fewer classes than existing colors");
  coloring.num_colors = num_classes;
  const int edge_count = graph.edge_count();
  sizes_.assign(as_size(num_classes), 0);
  for (const int c : coloring.color) ++sizes_[as_size(c)];
  split_into_empty_classes(edge_count, num_classes, coloring);

  // Each pass moves one edge from a largest class to a smallest class
  // by flipping an alternating path, so the spread shrinks steadily;
  // the iteration bound is a safety net, not a tuning knob.
  const int vertex_count = graph.left_count() + graph.right_count();
  const long long limit =
      2LL * static_cast<long long>(edge_count) * num_classes + 16;
  for (long long iteration = 0;; ++iteration) {
    POPS_CHECK(iteration <= limit, "spread_colors failed to converge");
    const int a = static_cast<int>(
        std::max_element(sizes_.begin(), sizes_.end()) - sizes_.begin());
    const int b = static_cast<int>(
        std::min_element(sizes_.begin(), sizes_.end()) - sizes_.begin());
    if (sizes_[as_size(a)] - sizes_[as_size(b)] <= 1) break;
    slot_a_.resize(as_size(vertex_count));
    slot_b_.resize(as_size(vertex_count));
    // A path of the a/b subgraph visits each vertex at most once.
    spread_path_.reserve(as_size(vertex_count));

    // Build the a/b two-colored subgraph: at most one edge of each
    // class per vertex, so components are paths and even cycles.
    std::fill(slot_a_.begin(), slot_a_.end(), -1);
    std::fill(slot_b_.begin(), slot_b_.end(), -1);
    for (int e = 0; e < edge_count; ++e) {
      const int c = coloring.color[as_size(e)];
      if (c != a && c != b) continue;
      const int u = graph.edge(e).left;
      const int v = graph.left_count() + graph.edge(e).right;
      auto& slots = c == a ? slot_a_ : slot_b_;
      slots[as_size(u)] = e;
      slots[as_size(v)] = e;
    }

    // Cycles carry equally many a- and b-edges, so some PATH has one
    // more a-edge than b-edges. The a/b components are vertex-disjoint,
    // so we can flip several such paths in one scan — up to gap/2 of
    // them, which leaves the pair balanced instead of paying a full
    // subgraph rebuild per single edge moved. Walks start only at path
    // endpoints, so marking each walked path's far endpoint keeps the
    // scan from walking it again from the other end.
    int flips_left = (sizes_[as_size(a)] - sizes_[as_size(b)]) / 2;
    bool flipped = false;
    walked_.assign(as_size(vertex_count), 0);
    for (int start = 0; start < vertex_count && flips_left > 0;
         ++start) {
      const bool has_a = slot_a_[as_size(start)] >= 0;
      const bool has_b = slot_b_[as_size(start)] >= 0;
      if (has_a == has_b) continue;  // not a path endpoint
      if (!has_a) continue;  // paths with extra a-edges start on a
      if (walked_[as_size(start)] != 0) continue;
      int vertex = start;
      int want_a = 1;
      spread_path_.clear();
      while (true) {
        const auto& slots = want_a ? slot_a_ : slot_b_;
        const int e = slots[as_size(vertex)];
        if (e < 0) break;
        if (!spread_path_.empty() && e == spread_path_.back()) break;
        spread_path_.push_back(e);
        const int u = graph.edge(e).left;
        const int v = graph.left_count() + graph.edge(e).right;
        vertex = vertex == u ? v : u;
        want_a = 1 - want_a;
      }
      walked_[as_size(vertex)] = 1;
      if (spread_path_.size() % 2 == 0) continue;  // balanced path
      for (const int e : spread_path_) {
        coloring.color[as_size(e)] =
            coloring.color[as_size(e)] == a ? b : a;
      }
      sizes_[as_size(a)] -= 1;
      sizes_[as_size(b)] += 1;
      --flips_left;
      flipped = true;
    }
    POPS_CHECK(flipped, "spread_colors: no augmenting path found");
  }
}

// A proper color class is a matching, and so is every subset of one.
// So surplus edges can move into an empty class with no path search,
// as long as that class draws from a single source class: every class
// keeps floor(E / k) edges and hands the rest, floor(E / k) at a time,
// to the empty classes. What this leaves uneven (a source that found no
// empty class left, or a partly filled one) the swaps in spread()
// finish.
void EdgeColorer::split_into_empty_classes(int edge_count, int num_classes,
                                           EdgeColoring& coloring) {
  const int target = edge_count / num_classes;
  int* sizes = sizes_.data();
  int next_empty = 0;
  while (next_empty < num_classes && sizes[next_empty] != 0) ++next_empty;
  if (target == 0 || next_empty == num_classes) return;

  // fill[c]: the formerly empty class that source class c is filling.
  split_fill_.assign(as_size(num_classes), -1);
  int* fill = split_fill_.data();
  int* color = coloring.color.data();
  for (int e = 0; e < edge_count; ++e) {
    const int c = color[e];
    if (sizes[c] <= target) continue;
    if (fill[c] < 0 || sizes[fill[c]] == target) {
      while (next_empty < num_classes && sizes[next_empty] != 0) ++next_empty;
      if (next_empty == num_classes) continue;
      fill[c] = next_empty;
    }
    color[e] = fill[c];
    --sizes[c];
    ++sizes[fill[c]];
  }
}

void EdgeColorer::reserve(int vertices, int max_degree,
                          ColoringAlgorithm algorithm) {
  const std::size_t side = as_size(vertices);
  // The alternating-path slot tables (vertex * delta) and the padded
  // regular edge lists (delta * max side) all hold this many.
  const std::size_t padded = side * as_size(max_degree);
  switch (algorithm) {
    case ColoringAlgorithm::kAlternatingPath:
      left_slot_.reserve(padded);
      right_slot_.reserve(padded);
      path_.reserve(2 * side);
      return;
    case ColoringAlgorithm::kEulerSplit:
      dc_lists_[0].reserve(padded);
      dc_lists_[1].reserve(padded);
      dc_partner_.reserve(padded + 1);
      dc_pending_.reserve(side);
      dc_cursor_.reserve(side);
      dc_deg_right_.reserve(side);
      dc_stack_.reserve(kDncStackCapacity);
      dc_match_left_.reserve(side);
      dc_match_right_.reserve(side);
      dc_walk_.reserve(side);
      dc_walk_at_.reserve(side);
      return;
  }
  POPS_CHECK(false, "unknown ColoringAlgorithm");
}

void EdgeColorer::reserve_spread(int vertices) {
  const std::size_t side = as_size(vertices);
  sizes_.reserve(side);
  split_fill_.reserve(side);
  slot_a_.reserve(2 * side);
  slot_b_.reserve(2 * side);
  walked_.reserve(2 * side);
  spread_path_.reserve(2 * side);
}

std::size_t EdgeColorer::scratch_capacity() const {
  return left_slot_.capacity() + right_slot_.capacity() +
         path_.capacity() + sizes_.capacity() + slot_a_.capacity() +
         slot_b_.capacity() + walked_.capacity() + split_fill_.capacity() +
         spread_path_.capacity() + dc_lists_[0].capacity() +
         dc_lists_[1].capacity() + dc_partner_.capacity() +
         dc_pending_.capacity() + dc_cursor_.capacity() +
         dc_deg_right_.capacity() +
         dc_stack_.capacity() + dc_match_left_.capacity() +
         dc_match_right_.capacity() + dc_walk_.capacity() +
         dc_walk_at_.capacity();
}

EdgeColoring color_edges(const BipartiteMultigraph& graph,
                         ColoringAlgorithm algorithm) {
  EdgeColorer colorer;
  EdgeColoring out;
  colorer.color(graph, algorithm, out);
  return out;
}

EdgeColoring spread_colors(const BipartiteMultigraph& graph,
                           const EdgeColoring& coloring,
                           int num_classes) {
  EdgeColorer colorer;
  EdgeColoring result = coloring;
  colorer.spread(graph, num_classes, result);
  return result;
}

}  // namespace pops
