// route(topo, pi, options) — the one-shot entry point of the routing
// API — plus the Theorem 2 slot formula, every coloring backend on a
// RoutingEngine, and the paper's Figure 3 worked example.
#include "perm/families.h"
#include "routing/engine.h"
#include "routing/router.h"
#include "routing/verify.h"
#include "support/prng.h"
#include "tests/schedule_util.h"
#include "tests/testing.h"

namespace pops {
namespace {

constexpr RouteStrategy kAllStrategies[] = {
    RouteStrategy::kDirect, RouteStrategy::kTheorem2,
    RouteStrategy::kBest};

POPS_TEST(Theorem2SlotsFormula) {
  EXPECT_EQ(theorem2_slots(Topology(1, 1)), 1);
  EXPECT_EQ(theorem2_slots(Topology(1, 32)), 1);
  EXPECT_EQ(theorem2_slots(Topology(2, 1)), 4);
  EXPECT_EQ(theorem2_slots(Topology(2, 2)), 2);
  EXPECT_EQ(theorem2_slots(Topology(8, 8)), 2);
  EXPECT_EQ(theorem2_slots(Topology(2, 16)), 2);
  EXPECT_EQ(theorem2_slots(Topology(16, 4)), 8);
  EXPECT_EQ(theorem2_slots(Topology(17, 4)), 10);
  EXPECT_EQ(theorem2_slots(Topology(32, 32)), 2);
}

POPS_TEST(RouteStrategyNames) {
  EXPECT_EQ(to_string(RouteStrategy::kDirect), "direct");
  EXPECT_EQ(to_string(RouteStrategy::kTheorem2), "theorem2");
  EXPECT_EQ(to_string(RouteStrategy::kBest), "best");
}

// The paper's headline claim, machine-checked: for every topology in
// the sweep and every permutation class, the constructed schedule
// passes strict verification and uses exactly theorem2_slots slots.
POPS_TEST(RoutesEveryPermutationClassAtTheBound) {
  Rng rng(17);
  for (const int d : {1, 2, 3, 4, 8, 9}) {
    for (const int g : {1, 2, 3, 5, 8}) {
      const Topology topo(d, g);
      const int n = topo.processor_count();
      std::vector<Permutation> cases;
      cases.push_back(Permutation::identity(n));
      cases.push_back(vector_reversal(n));
      cases.push_back(group_rotation(d, g, g > 1 ? 1 : 0));
      cases.push_back(Permutation::random(n, rng));
      if (n > 1) {
        cases.push_back(Permutation::random_derangement(n, rng));
      }
      for (const Permutation& pi : cases) {
        const RouteResult result =
            route(topo, pi, {RouteStrategy::kTheorem2});
        EXPECT_EQ(result.slot_count, theorem2_slots(topo));
        EXPECT_EQ(result.schedule.slot_count(), result.slot_count);
        EXPECT_TRUE(result.strategy == RouteStrategy::kTheorem2);
        const VerificationResult vr =
            verify_schedule(topo, pi, result.schedule);
        EXPECT_TRUE(vr.ok);
        if (!vr.ok) {
          EXPECT_EQ(vr.failure, "");  // surface the reason in the log
        }
      }
    }
  }
}

// Satellite coverage for the unified entry point: every strategy, with
// and without verification, yields a verified schedule and coherent
// RouteResult fields. (options.verify aborts on a bad schedule, so a
// returning call IS the assertion for the verify=true half.)
POPS_TEST(RouteEveryStrategyWithAndWithoutVerify) {
  Rng rng(21);
  for (const auto& [d, g] : {std::pair{1, 4}, {4, 4}, {8, 2}, {3, 5}}) {
    const Topology topo(d, g);
    const Permutation pi =
        Permutation::random(topo.processor_count(), rng);
    for (const RouteStrategy strategy : kAllStrategies) {
      for (const bool verify : {false, true}) {
        RouteOptions options;
        options.strategy = strategy;
        options.verify = verify;
        const RouteResult result = route(topo, pi, options);
        EXPECT_EQ(result.slot_count, result.schedule.slot_count());
        EXPECT_TRUE(result.slot_count >= 1);
        EXPECT_TRUE(verify_schedule(topo, pi, result.schedule).ok);
        if (strategy == RouteStrategy::kTheorem2) {
          EXPECT_EQ(result.slot_count, theorem2_slots(topo));
          EXPECT_TRUE(result.strategy == RouteStrategy::kTheorem2);
        }
        if (strategy == RouteStrategy::kDirect) {
          EXPECT_TRUE(result.strategy == RouteStrategy::kDirect);
        }
        if (strategy == RouteStrategy::kBest) {
          // kBest reports the concrete winner, never itself, and the
          // winner is no worse than the Theorem 2 bound.
          EXPECT_TRUE(result.strategy != RouteStrategy::kBest);
          EXPECT_TRUE(result.slot_count <= theorem2_slots(topo));
        }
      }
    }
  }
}

// kBest picks the shorter candidate on both sides of the crossover.
POPS_TEST(RouteBestPicksTheWinner) {
  const Topology adversarial_topo(16, 4);
  const RouteResult adversarial = route(
      adversarial_topo, group_rotation(16, 4, 1), {RouteStrategy::kBest});
  EXPECT_TRUE(adversarial.strategy == RouteStrategy::kTheorem2);
  EXPECT_EQ(adversarial.slot_count, theorem2_slots(adversarial_topo));

  const Topology square(4, 4);
  // Transpose traffic: one packet per coupler, direct wins in 1 slot.
  std::vector<int> images(16);
  for (int p = 0; p < 16; ++p) images[as_size(p)] = (p % 4) * 4 + p / 4;
  const RouteResult easy =
      route(square, Permutation(std::move(images)), {RouteStrategy::kBest});
  EXPECT_TRUE(easy.strategy == RouteStrategy::kDirect);
  EXPECT_EQ(easy.slot_count, 1);
}

POPS_TEST(AllColoringBackendsProduceVerifiedPlans) {
  Rng rng(18);
  for (const auto algorithm : kAllColoringAlgorithms) {
    for (const auto& [d, g] :
         {std::pair{2, 2}, {4, 2}, {3, 4}, {7, 3}, {8, 8}}) {
      const Topology topo(d, g);
      RoutingEngine engine(topo, RouterOptions{algorithm});
      const Permutation pi =
          Permutation::random(topo.processor_count(), rng);
      const FlatSchedule& schedule =
          engine.route(pi, {RouteStrategy::kTheorem2});
      EXPECT_EQ(schedule.slot_count(), theorem2_slots(topo));
      EXPECT_TRUE(verify_schedule(topo, pi, schedule).ok);
    }
  }
}

POPS_TEST(SingleSlotTopologyRoutesDirectly) {
  Rng rng(20);
  const Topology topo(1, 8);
  const Permutation pi = Permutation::random(8, rng);
  const RouteResult result = route(topo, pi, {RouteStrategy::kTheorem2});
  EXPECT_EQ(result.slot_count, 1);
  EXPECT_TRUE(verify_schedule(topo, pi, result.schedule).ok);
}

// The paper's only worked example (Figure 3): POPS(3, 3) with
// pi = [5 1 7 2 0 6 3 8 4]. Theorem 2 routes it in 2 slots through a
// fair distribution: the packets of one source group use distinct
// intermediate groups, and the packets one intermediate group relays
// go to distinct destination groups.
POPS_TEST(Figure3WorkedExample) {
  const Topology topo(3, 3);
  const Permutation pi({5, 1, 7, 2, 0, 6, 3, 8, 4});
  RoutingEngine engine(topo);
  const FlatSchedule& schedule =
      engine.route(pi, {RouteStrategy::kTheorem2});
  EXPECT_EQ(schedule.slot_count(), 2);
  const VerificationResult vr = verify_schedule(topo, pi, schedule);
  EXPECT_TRUE(vr.ok);
  EXPECT_EQ(vr.failure, "");

  const std::vector<int> mids =
      testing::relays_by_packet(schedule, topo.processor_count());
  for (int group = 0; group < topo.g(); ++group) {
    std::vector<bool> mid_groups(as_size(topo.g()), false);
    std::vector<bool> destination_groups(as_size(topo.g()), false);
    for (int p = 0; p < topo.processor_count(); ++p) {
      const int mid_group = topo.group_of(mids[as_size(p)]);
      if (topo.group_of(p) == group) {
        EXPECT_FALSE(mid_groups[as_size(mid_group)]);
        mid_groups[as_size(mid_group)] = true;
      }
      if (mid_group == group) {
        const int destination_group = topo.group_of(pi(p));
        EXPECT_FALSE(destination_groups[as_size(destination_group)]);
        destination_groups[as_size(destination_group)] = true;
      }
    }
  }
}

}  // namespace
}  // namespace pops
