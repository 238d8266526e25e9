#include "routing/bounds.h"

#include <algorithm>
#include <vector>

#include "routing/router.h"

namespace pops {

int ceil_div(int a, int b) {
  POPS_CHECK(a >= 0 && b >= 1, "ceil_div needs a >= 0, b >= 1");
  // a + b - 1 would overflow for a near INT_MAX.
  return a / b + (a % b != 0 ? 1 : 0);
}

int lower_bound_slots(const Topology& topo, const Permutation& pi) {
  POPS_CHECK(pi.size() == topo.processor_count(),
             "lower_bound_slots: permutation does not fit the topology");
  const int d = topo.d();
  const int g = topo.g();
  const int n = topo.processor_count();

  // Per-group load of moved packets, and the block structure: for each
  // source group, the single destination group of its packets (or -1
  // once two destinations differ).
  std::vector<int> moved_from(as_size(g), 0);
  std::vector<int> moved_to(as_size(g), 0);
  std::vector<int> block_target(as_size(g), -2);  // -2 = no packet seen
  int moved = 0;
  for (int p = 0; p < n; ++p) {
    const int src_group = topo.group_of(p);
    const int dst_group = topo.group_of(pi(p));
    if (block_target[as_size(src_group)] == -2) {
      block_target[as_size(src_group)] = dst_group;
    } else if (block_target[as_size(src_group)] != dst_group) {
      block_target[as_size(src_group)] = -1;
    }
    if (pi(p) == p) continue;
    ++moved;
    ++moved_from[as_size(src_group)];
    ++moved_to[as_size(dst_group)];
  }
  if (moved == 0) return 0;
  if (d == 1) return 1;  // Theorem 2 routes any permutation in 1 slot.

  // Bandwidth bound: a group's moved packets leave (arrive) through at
  // most min(d, g) transmissions per slot.
  int max_load = 0;
  for (int j = 0; j < g; ++j) {
    max_load = std::max({max_load, moved_from[as_size(j)],
                         moved_to[as_size(j)]});
  }
  int bound = std::max(1, ceil_div(max_load, std::min(d, g)));

  // Group-block classification (needs every group's packets on one
  // destination group).
  bool block = true;
  bool all_moving = true;   // sigma(j) != j for every group
  bool all_fixed = true;    // sigma == identity
  for (int j = 0; j < g; ++j) {
    if (block_target[as_size(j)] < 0) block = false;
    if (block_target[as_size(j)] == j) {
      all_moving = false;
    } else {
      all_fixed = false;
    }
  }
  // The direct schedule routes any group-block permutation in d slots
  // (each group's d packets share one coupler), so both counts stop at
  // d. Uncapped they exceed it when g == 1, or when g == 2 and d is odd.
  if (block && all_moving) {
    // Proposition 2.
    bound = std::max(bound, std::min(d, 2 * ceil_div(d, g)));
  } else if (block && all_fixed && moved == n) {
    // Proposition 3.
    bound = std::max(bound, std::min(d, 2 * ceil_div(d, g + 1)));
  }
  return bound;
}

long long h_relation_budget(const Topology& topo, int h) {
  POPS_CHECK(h >= 0, "h_relation_budget needs h >= 0");
  return static_cast<long long>(h) * theorem2_slots(topo);
}

}  // namespace pops
