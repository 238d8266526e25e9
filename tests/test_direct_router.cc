// Direct (no-intermediate) routing and the portfolio, exercised
// through the engine API.
#include "perm/families.h"
#include "routing/engine.h"
#include "routing/verify.h"
#include "support/prng.h"
#include "tests/testing.h"

namespace pops {
namespace {

// Transpose traffic on POPS(size, size): (group i, index j) ->
// (group j, index i). Every coupler c(j, i) carries exactly one
// packet, so the direct router must finish in a single slot.
Permutation group_transpose(int size) {
  std::vector<int> images(as_size(size * size));
  for (int p = 0; p < size * size; ++p) {
    const int group = p / size;
    const int index = p % size;
    images[as_size(p)] = index * size + group;
  }
  return Permutation(std::move(images));
}

POPS_TEST(DirectRoutesDemandOneTrafficInOneSlot) {
  for (const int size : {2, 4, 8}) {
    const Topology topo(size, size);
    const Permutation pi = group_transpose(size);
    RoutingEngine engine(topo);
    const FlatSchedule& plan = engine.route(pi, {RouteStrategy::kDirect});
    EXPECT_EQ(engine.direct_max_demand(), 1);
    EXPECT_EQ(plan.slot_count(), 1);
    EXPECT_TRUE(verify_schedule(topo, pi, plan).ok);
  }
}

// Adversarial group-block traffic: all d packets of a group cross one
// coupler, so direct routing degrades to exactly d slots while
// Theorem 2 stays flat at 2 * ceil(d / g) — the paper's worst-case
// separation, machine-checked on both routers.
POPS_TEST(AdversarialTrafficSeparatesDirectFromTheorem2) {
  for (const auto& [d, g] :
       {std::pair{2, 4}, {4, 4}, {8, 2}, {3, 5}, {16, 4}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    RoutingEngine engine(topo);
    const Permutation cases[] = {group_rotation(d, g, 1),
                                 vector_reversal(n)};
    for (const Permutation& pi : cases) {
      const FlatSchedule& direct =
          engine.route(pi, {RouteStrategy::kDirect});
      EXPECT_EQ(engine.direct_max_demand(), d);
      EXPECT_EQ(direct.slot_count(), d);
      EXPECT_TRUE(verify_schedule(topo, pi, direct).ok);

      const FlatSchedule& theorem2 =
          engine.route(pi, {RouteStrategy::kTheorem2});
      EXPECT_EQ(theorem2.slot_count(), theorem2_slots(topo));
      EXPECT_TRUE(verify_schedule(topo, pi, theorem2).ok);
    }
  }
}

POPS_TEST(DirectTakesExactlyMaxDemandSlotsOnRandomTraffic) {
  Rng rng(23);
  for (const auto& [d, g] :
       {std::pair{1, 8}, {4, 4}, {8, 4}, {16, 2}, {6, 7}}) {
    const Topology topo(d, g);
    RoutingEngine engine(topo);
    for (int trial = 0; trial < 5; ++trial) {
      const Permutation pi =
          Permutation::random(topo.processor_count(), rng);
      const FlatSchedule& plan =
          engine.route(pi, {RouteStrategy::kDirect});
      EXPECT_EQ(plan.slot_count(), engine.direct_max_demand());
      // d*g packets over g^2 couplers: some coupler holds >= ceil(d/g).
      EXPECT_TRUE(engine.direct_max_demand() >= (d + g - 1) / g);
      EXPECT_TRUE(verify_schedule(topo, pi, plan).ok);
    }
  }
}

POPS_TEST(PortfolioNeverExceedsEitherCandidate) {
  Rng rng(24);
  for (const auto& [d, g] :
       {std::pair{1, 8}, {2, 16}, {4, 4}, {16, 4}, {16, 2}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    RoutingEngine engine(topo);
    const Permutation cases[] = {Permutation::random(n, rng),
                                 group_rotation(d, g, g > 1 ? 1 : 0),
                                 vector_reversal(n)};
    for (const Permutation& pi : cases) {
      // Both candidates, built on their own: kBest builds only the
      // winner.
      const int direct = engine.route_direct(pi).slot_count();
      EXPECT_EQ(direct, engine.direct_max_demand());
      EXPECT_EQ(engine.route_permutation(pi).slot_count(),
                theorem2_slots(topo));
      const FlatSchedule& plan = engine.route(pi, {RouteStrategy::kBest});
      EXPECT_EQ(engine.direct_max_demand(), direct);
      const int better =
          direct < theorem2_slots(topo) ? direct : theorem2_slots(topo);
      EXPECT_EQ(plan.slot_count(), better);
      EXPECT_TRUE(verify_schedule(topo, pi, plan).ok);
    }
  }
}

POPS_TEST(PortfolioFlipsToTheorem2OnAdversarialTraffic) {
  // POPS(16, 4): Theorem 2 charges 8 slots, group rotation costs
  // direct routing 16 — the portfolio must pick Theorem 2.
  const Topology topo(16, 4);
  RoutingEngine engine(topo);
  const FlatSchedule& adversarial =
      engine.route(group_rotation(16, 4, 1), {RouteStrategy::kBest});
  EXPECT_TRUE(engine.last_strategy() == RouteStrategy::kTheorem2);
  EXPECT_EQ(adversarial.slot_count(), theorem2_slots(topo));

  // Transpose traffic routes directly in one slot < 2; the portfolio
  // must pick direct.
  const Topology square(4, 4);
  RoutingEngine square_engine(square);
  const FlatSchedule& easy =
      square_engine.route(group_transpose(4), {RouteStrategy::kBest});
  EXPECT_TRUE(square_engine.last_strategy() == RouteStrategy::kDirect);
  EXPECT_EQ(easy.slot_count(), 1);
}

}  // namespace
}  // namespace pops
