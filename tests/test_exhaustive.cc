// Exhaustive check at small n.
//
// For every POPS(d, g) with n = d * g <= 8 and every permutation of its
// processors, every coloring backend must meet the slot formulas
// exactly: the direct and Theorem 2 schedules each deliver on the
// strict simulator, and kBest returns the shorter of the two.
// Enumerating every permutation feeds every packet
// multigraph H of these shapes through both ways the engine names
// intermediate groups: H spread onto g classes when d < g (2/3, 2/4,
// including the split into empty classes), and H's colors read
// directly as groups in multi-batch shapes (3/2, 4/2).
//
// Every h-relation of degree at most 3 on n <= 3 processors, of degree
// at most 2 on n = 4, and of degree at most 1 (every partial
// permutation) on n <= 6 routes on every shape and backend: its plan
// has one phase per unit of degree, delivers, takes each phase at its
// exact length, and respects the bandwidth lower bound. At these
// shapes d <= 2 or g <= 2, so a phase's busiest coupler never exceeds
// 2 * ceil(Delta / g) and the direct schedule wins or ties every
// phase; test_h_relation covers phases Theorem 2 wins.
#include <algorithm>
#include <numeric>
#include <vector>

#include "routing/bounds.h"
#include "routing/engine.h"
#include "routing/h_relation.h"
#include "routing/verify.h"
#include "tests/h_relation_util.h"
#include "tests/testing.h"

namespace pops {
namespace {

POPS_TEST(EveryPermutationMeetsTheSlotFormulasOnEveryBackend) {
  for (int n = 1; n <= 8; ++n) {
    for (int d = 1; d <= n; ++d) {
      if (n % d != 0) continue;
      const Topology topo(d, n / d);
      const int theorem2 = theorem2_slots(topo);
      for (const auto algorithm : kAllColoringAlgorithms) {
        RouterOptions options;
        options.coloring = algorithm;
        RoutingEngine engine(topo, options);
        std::vector<int> images(as_size(n));
        std::iota(images.begin(), images.end(), 0);
        do {
          const Permutation pi(images);
          // Verified routes execute on the engine's strict simulator and
          // abort unless every packet is delivered.
          const int direct =
              engine.route(pi, {RouteStrategy::kDirect, /*verify=*/true})
                  .slot_count();
          EXPECT_EQ(direct, engine.direct_max_demand());
          EXPECT_EQ(
              engine.route(pi, {RouteStrategy::kTheorem2, /*verify=*/true})
                  .slot_count(),
              theorem2);
          // kBest measures, builds only the shorter schedule (direct on
          // ties) and verifies it.
          const FlatSchedule& best = engine.route(pi, {RouteStrategy::kBest});
          EXPECT_EQ(best.slot_count(), std::min(direct, theorem2));
          const RouteStrategy winner = direct <= theorem2
                                           ? RouteStrategy::kDirect
                                           : RouteStrategy::kTheorem2;
          EXPECT_TRUE(engine.last_strategy() == winner);
          EXPECT_TRUE(lower_bound_slots(topo, pi) <= best.slot_count());
        } while (std::next_permutation(images.begin(), images.end()));
      }
    }
  }
}

// ceil(Delta / min(d, g)), Delta the most moved packets one group sends
// or receives: each slot carries at most min(d, g) of them out of (or
// into) one group.
int moved_packet_bound(const Topology& topo,
                       const std::vector<Request>& requests) {
  std::vector<int> sends(as_size(topo.g()), 0);
  std::vector<int> receives(as_size(topo.g()), 0);
  int delta = 0;
  for (const Request& request : requests) {
    if (request.source == request.destination) continue;
    delta = std::max(
        {delta, ++sends[as_size(topo.group_of(request.source))],
         ++receives[as_size(topo.group_of(request.destination))]});
  }
  return ceil_div(delta, std::min(topo.d(), topo.g()));
}

// Calls visit(requests) once for every h-relation of degree at most h
// on n processors: every multiset of (source, destination) pairs in
// which each processor sends at most h and receives at most h. A
// multiset is listed in one fixed order, ascending (source,
// destination), so its request ids are fixed too. Pair `pair` on
// (pair / n, pair % n) takes each count its sender and receiver still
// allow.
template <typename Visit>
void for_each_relation(int n, int h, int pair, std::vector<int>& sends,
                       std::vector<int>& receives,
                       std::vector<Request>& requests, const Visit& visit) {
  if (pair == n * n) {
    visit(requests);
    return;
  }
  const int source = pair / n;
  const int destination = pair % n;
  for_each_relation(n, h, pair + 1, sends, receives, requests, visit);
  int added = 0;
  while (sends[as_size(source)] < h && receives[as_size(destination)] < h) {
    ++sends[as_size(source)];
    ++receives[as_size(destination)];
    requests.push_back(Request{source, destination});
    ++added;
    for_each_relation(n, h, pair + 1, sends, receives, requests, visit);
  }
  sends[as_size(source)] -= added;
  receives[as_size(destination)] -= added;
  requests.resize(requests.size() - as_size(added));
}

// The most requests one processor sends or receives: the relation's
// degree, and so its phase count.
int relation_degree(int n, const std::vector<Request>& requests) {
  std::vector<int> sends(as_size(n), 0);
  std::vector<int> receives(as_size(n), 0);
  int degree = 0;
  for (const Request& request : requests) {
    degree = std::max({degree, ++sends[as_size(request.source)],
                       ++receives[as_size(request.destination)]});
  }
  return degree;
}

POPS_TEST(EveryLowDegreeHRelationRoutesAtItsExactLengthOnEveryBackend) {
  for (int n = 1; n <= 6; ++n) {
    // Degree 3 for n <= 3, 2 for n = 4, and 1 (partial permutations)
    // for n <= 6.
    const int max_degree = n <= 3 ? 3 : n == 4 ? 2 : 1;
    for (int d = 1; d <= n; ++d) {
      if (n % d != 0) continue;
      const Topology topo(d, n / d);
      for (const auto algorithm : kAllColoringAlgorithms) {
        RouterOptions options;
        options.coloring = algorithm;
        RoutingEngine engine(topo, options);
        std::vector<int> sends(as_size(n), 0);
        std::vector<int> receives(as_size(n), 0);
        std::vector<Request> requests;
        int relations = 0;
        for_each_relation(
            n, max_degree, 0, sends, receives, requests,
            [&](const std::vector<Request>& relation) {
              ++relations;
              const int slots =
                  engine.route_h_relation(relation).slot_count();
              const HRelationPlan plan = h_relation_plan(engine);
              EXPECT_EQ(plan.h, relation_degree(n, relation));
              EXPECT_EQ(slots,
                        testing::expected_plan_slots(topo, relation, plan));
              EXPECT_EQ(verify_h_relation(topo, relation, plan), "");
              EXPECT_TRUE(slots >= moved_packet_bound(topo, relation));
            });
        // n x n count matrices with every row and column sum at most
        // max_degree; at degree 1, the partial permutations.
        if (n == 3) EXPECT_EQ(relations, 3380);
        if (n == 4) EXPECT_EQ(relations, 12951);
        if (n == 5) EXPECT_EQ(relations, 1546);
        if (n == 6) EXPECT_EQ(relations, 13327);
      }
    }
  }
}

}  // namespace
}  // namespace pops
