// Exhaustive check at small n.
//
// For every POPS(d, g) with n = d * g <= 8 and every permutation of its
// processors, every coloring backend must meet the slot formulas
// exactly, and both candidate schedules must deliver on the strict
// simulator. Enumerating every permutation feeds every packet
// multigraph H of these shapes through both ways the engine names
// intermediate groups: H spread onto g classes when d < g (2/3, 2/4,
// including the split into empty classes), and H's colors read
// directly as groups in multi-batch shapes (3/2, 4/2).
//
// For every POPS(d, g) with n <= 6 and every partial permutation of its
// processors, route_h_relation must route the one phase at its exact
// length on every backend, deliver it, and respect the bandwidth lower
// bound. At these shapes d <= 2 or g <= 2, so a phase's busiest coupler
// never exceeds 2 * ceil(Delta / g) and the direct schedule wins or
// ties every phase; test_h_relation covers phases Theorem 2 wins.
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
          // route_best executes both candidates on the engine's strict
          // simulator and aborts unless each delivers every packet.
          const FlatSchedule& best = engine.route_best(pi);
          const int direct = engine.direct_slot_count();
          EXPECT_EQ(engine.theorem2_slot_count(), theorem2);
          EXPECT_EQ(direct, engine.direct_max_demand());
          EXPECT_EQ(best.slot_count(), std::min(direct, theorem2));
          EXPECT_TRUE(lower_bound_slots(topo, pi) <= best.slot_count());
        } while (std::next_permutation(images.begin(), images.end()));
      }
    }
  }
}

// Calls visit(requests) once for every partial permutation of n
// processors: sources from `source` on either stay idle or send to a
// destination not yet taken. Requests are listed by source.
template <typename Visit>
void for_each_partial_permutation(int n, int source,
                                  std::vector<char>& taken,
                                  std::vector<Request>& requests,
                                  const Visit& visit) {
  if (source == n) {
    visit(requests);
    return;
  }
  for_each_partial_permutation(n, source + 1, taken, requests, visit);
  for (int destination = 0; destination < n; ++destination) {
    if (taken[as_size(destination)] != 0) continue;
    taken[as_size(destination)] = 1;
    requests.push_back(Request{source, destination});
    for_each_partial_permutation(n, source + 1, taken, requests, visit);
    requests.pop_back();
    taken[as_size(destination)] = 0;
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

POPS_TEST(EveryPartialPermutationRoutesAtItsExactLengthOnEveryBackend) {
  for (int n = 1; n <= 6; ++n) {
    for (int d = 1; d <= n; ++d) {
      if (n % d != 0) continue;
      const Topology topo(d, n / d);
      for (const auto algorithm : kAllColoringAlgorithms) {
        RouterOptions options;
        options.coloring = algorithm;
        RoutingEngine engine(topo, options);
        std::vector<char> taken(as_size(n), 0);
        std::vector<Request> requests;
        for_each_partial_permutation(
            n, 0, taken, requests,
            [&](const std::vector<Request>& relation) {
              const int slots =
                  engine.route_h_relation(relation).slot_count();
              const HRelationPlan plan = h_relation_plan(engine);
              EXPECT_EQ(plan.h, relation.empty() ? 0 : 1);
              EXPECT_EQ(slots,
                        testing::expected_plan_slots(topo, relation, plan));
              EXPECT_EQ(verify_h_relation(topo, relation, plan), "");
              EXPECT_TRUE(slots >= moved_packet_bound(topo, relation));
            });
      }
    }
  }
}

}  // namespace
}  // namespace pops
