#include "routing/h_relation.h"

#include "perm/families.h"
#include "routing/engine.h"
#include "routing/verify.h"
#include "support/prng.h"
#include "tests/h_relation_util.h"
#include "tests/testing.h"

namespace pops {
namespace {

// The union of h random permutations: every processor sends exactly h
// and receives exactly h packets, so the relation's degree is h with
// certainty (not just w.h.p.).
std::vector<Request> union_of_permutations(const Topology& topo, int h,
                                           Rng& rng) {
  std::vector<Request> requests;
  for (int k = 0; k < h; ++k) {
    const Permutation pi =
        Permutation::random(topo.processor_count(), rng);
    for (int i = 0; i < pi.size(); ++i) {
      requests.push_back(Request{i, pi(i)});
    }
  }
  return requests;
}

POPS_TEST(RoutesUnionOfPermutationsPhaseByPhase) {
  // Every phase takes exactly its shorter schedule, so the relation
  // stays within the h * theorem2_slots budget.
  Rng rng(31);
  for (const auto& [d, g] :
       {std::pair{1, 8}, {2, 2}, {4, 4}, {8, 4}, {4, 8}}) {
    const Topology topo(d, g);
    for (const int h : {1, 2, 3}) {
      const auto requests = union_of_permutations(topo, h, rng);
      const HRelationPlan plan = route_h_relation(topo, requests);
      EXPECT_EQ(plan.h, h);
      EXPECT_EQ(as_int(plan.phases.size()), h);
      for (const HRelationPhase& phase : plan.phases) {
        EXPECT_EQ(as_int(phase.slots.size()),
                  testing::expected_phase_slots(topo, requests,
                                                phase.requests));
      }
      EXPECT_TRUE(plan.total_slots() <= h * theorem2_slots(topo));
      EXPECT_EQ(verify_h_relation(topo, requests, plan), "");
    }
  }
}

POPS_TEST(EveryColoringBackendRoutesTheRelation) {
  Rng rng(32);
  const Topology topo(4, 4);
  const auto requests = union_of_permutations(topo, 2, rng);
  for (const auto algorithm : kAllColoringAlgorithms) {
    RouterOptions options;
    options.coloring = algorithm;
    const HRelationPlan plan = route_h_relation(topo, requests, options);
    EXPECT_EQ(plan.h, 2);
    EXPECT_EQ(verify_h_relation(topo, requests, plan), "");
  }
}

POPS_TEST(RoutesUnbalancedRelations) {
  // A hot sender: processor 0 holds 3 packets, everyone else is idle.
  const Topology topo(2, 3);
  const std::vector<Request> hot = {{0, 1}, {0, 4}, {0, 5}};
  const HRelationPlan hot_plan = route_h_relation(topo, hot);
  EXPECT_EQ(hot_plan.h, 3);
  // Three one-packet phases, each one direct slot.
  EXPECT_EQ(hot_plan.total_slots(),
            testing::expected_plan_slots(topo, hot, hot_plan));
  EXPECT_EQ(hot_plan.total_slots(), 3);
  EXPECT_EQ(verify_h_relation(topo, hot, hot_plan), "");

  // A hot receiver plus a self-request (delivered without moving).
  const std::vector<Request> mixed = {{1, 2}, {3, 2}, {5, 2}, {4, 4}};
  const HRelationPlan mixed_plan = route_h_relation(topo, mixed);
  EXPECT_EQ(mixed_plan.h, 3);
  EXPECT_EQ(mixed_plan.total_slots(),
            testing::expected_plan_slots(topo, mixed, mixed_plan));
  EXPECT_EQ(verify_h_relation(topo, mixed, mixed_plan), "");
}

// The packets of pi's sources kept with probability keep_percent / 100:
// a partial permutation.
std::vector<Request> partial(const Permutation& pi, int keep_percent,
                             Rng& rng) {
  std::vector<Request> requests;
  for (int i = 0; i < pi.size(); ++i) {
    if (rng.next_below(100) < keep_percent) {
      requests.push_back(Request{i, pi(i)});
    }
  }
  return requests;
}

POPS_TEST(TheoremTwoRoutesPartialPhasesWhenShorter) {
  // Shapes with d > 2 and g > 2, where a phase's busiest coupler can
  // exceed 2 * ceil(Delta / g): random partial permutations, and
  // restrictions of group-block permutations, whose groups each keep
  // their packets on one coupler. A phase that Theorem 2 wins is
  // shorter than its direct schedule.
  Rng rng(34);
  int theorem2_wins = 0;
  int phases = 0;
  for (const auto& [d, g] :
       {std::pair{3, 3}, {3, 4}, {5, 3}, {16, 8}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    for (const auto algorithm : kAllColoringAlgorithms) {
      RouterOptions options;
      options.coloring = algorithm;
      RoutingEngine engine(topo, options);
      for (int trial = 0; trial < 400; ++trial) {
        const int keep = 25 + rng.next_below(76);  // every packet at 100
        Permutation pi = Permutation::random(n, rng);
        if (trial % 2 == 1) {
          std::vector<Permutation> within;
          for (int j = 0; j < g; ++j) {
            within.push_back(Permutation::random(d, rng));
          }
          pi = group_block(d, g, Permutation::random(g, rng), within);
        }
        const std::vector<Request> requests = partial(pi, keep, rng);
        engine.route_h_relation(requests);
        const HRelationPlan plan = h_relation_plan(engine);
        EXPECT_EQ(verify_h_relation(topo, requests, plan), "");
        for (const HRelationPhase& phase : plan.phases) {
          const int slots = as_int(phase.slots.size());
          EXPECT_EQ(slots, testing::expected_phase_slots(topo, requests,
                                                         phase.requests));
          if (slots < testing::phase_max_demand(topo, requests,
                                                phase.requests)) {
            ++theorem2_wins;
          }
          ++phases;
        }
      }
    }
  }
  EXPECT_TRUE(theorem2_wins >= 1000);
  EXPECT_TRUE(theorem2_wins < phases);
}

POPS_TEST(EmptyRelationRoutesInZeroSlots) {
  const Topology topo(4, 4);
  const std::vector<Request> none;
  const HRelationPlan plan = route_h_relation(topo, none);
  EXPECT_EQ(plan.h, 0);
  EXPECT_EQ(as_int(plan.phases.size()), 0);
  EXPECT_EQ(plan.total_slots(), 0);
  EXPECT_EQ(verify_h_relation(topo, none, plan), "");
}

// verify_h_relation is only trustworthy if it rejects broken plans.
POPS_TEST(VerifierRejectsCorruptedPlans) {
  Rng rng(33);
  const Topology topo(1, 6);  // one slot per phase: easy to corrupt
  const auto requests = union_of_permutations(topo, 2, rng);
  const HRelationPlan plan = route_h_relation(topo, requests);
  EXPECT_EQ(verify_h_relation(topo, requests, plan), "");

  // Dropping a phase strands that phase's packets at their sources.
  HRelationPlan truncated = plan;
  truncated.phases.pop_back();
  EXPECT_NE(verify_h_relation(topo, requests, truncated), "");

  // Bending one transmission misdelivers (or double-books a receiver).
  HRelationPlan bent = plan;
  Transmission& t = bent.phases[0].slots[0].transmissions[0];
  t.destination = (t.destination + 1) % topo.processor_count();
  EXPECT_NE(verify_h_relation(topo, requests, bent), "");

  // Naming a packet the transmitter does not hold is a model
  // violation the simulator refuses outright.
  HRelationPlan phantom = plan;
  phantom.phases[0].slots[0].transmissions[0].packet = -7;
  EXPECT_NE(verify_h_relation(topo, requests, phantom), "");
}

}  // namespace
}  // namespace pops
