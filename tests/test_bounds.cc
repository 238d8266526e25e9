// Satellite: the per-instance lower bounds of routing/bounds are
// sound (never above a verified measured schedule) and tight where the
// paper's Propositions promise tightness.
#include "routing/bounds.h"

#include <limits>

#include "perm/families.h"
#include "pops/patterns.h"
#include "routing/engine.h"
#include "routing/verify.h"
#include "support/prng.h"
#include "tests/testing.h"

namespace pops {
namespace {

POPS_TEST(CeilDiv) {
  EXPECT_EQ(ceil_div(0, 3), 0);
  EXPECT_EQ(ceil_div(1, 3), 1);
  EXPECT_EQ(ceil_div(3, 3), 1);
  EXPECT_EQ(ceil_div(4, 3), 2);
  EXPECT_ABORTS(ceil_div(-1, 3));
  EXPECT_ABORTS(ceil_div(1, 0));
  // a + b - 1 does not fit an int here; the quotient does.
  EXPECT_EQ(ceil_div(std::numeric_limits<int>::max(), 2), 1073741824);
  EXPECT_EQ(ceil_div(std::numeric_limits<int>::max(),
                     std::numeric_limits<int>::max()),
            1);
}

POPS_TEST(IdentityNeedsNoSlots) {
  const Topology topo(4, 4);
  EXPECT_EQ(lower_bound_slots(topo, Permutation::identity(16)), 0);
}

POPS_TEST(DOneRoutesInOneSlot) {
  const Topology topo(1, 8);
  EXPECT_EQ(lower_bound_slots(topo, vector_reversal(8)), 1);
  EXPECT_EQ(lower_bound_slots(topo, group_rotation(1, 8, 1)), 1);
}

POPS_TEST(DerangementBoundIsCeilDOverG) {
  // Proposition 1: a derangement's bound is the bandwidth bound
  // ceil(d / g) (every packet moves), so Theorem 2's ratio is <= 2.
  Rng rng(3);
  for (const auto& [d, g] :
       {std::pair{4, 4}, {8, 4}, {16, 4}, {4, 8}, {12, 3}}) {
    const Topology topo(d, g);
    const Permutation pi =
        Permutation::random_derangement(topo.processor_count(), rng);
    EXPECT_EQ(lower_bound_slots(topo, pi), ceil_div(d, g));
  }
}

POPS_TEST(MovingBlockBoundMatchesTheorem2) {
  // Proposition 2: group-block permutations that move every group need
  // exactly the Theorem 2 slot count — the construction is optimal.
  for (const auto& [d, g] :
       {std::pair{2, 2}, {4, 4}, {8, 4}, {16, 4}, {32, 8}}) {
    const Topology topo(d, g);
    EXPECT_EQ(lower_bound_slots(topo, group_rotation(d, g, 1)),
              theorem2_slots(topo));
    EXPECT_EQ(
        lower_bound_slots(topo, vector_reversal(topo.processor_count())),
        theorem2_slots(topo));
  }
  // With g == 2 and d odd, 2 * ceil(d / g) = d + 1, but the direct
  // schedule already routes a moving block in d slots.
  EXPECT_EQ(lower_bound_slots(Topology(3, 2), group_rotation(3, 2, 1)), 3);
}

POPS_TEST(FixedBlockBoundUsesGPlusOne) {
  // Proposition 3: groups fixed, every packet displaced within its
  // group -> 2 * ceil(d / (g + 1)). At 8/2 and 10/3, unlike the other
  // shapes, ceil(d / (g + 2)) is smaller, so g + 1 is pinned.
  for (const auto& [d, g] :
       {std::pair{4, 4}, {12, 3}, {32, 8}, {8, 2}, {10, 3}}) {
    const Topology topo(d, g);
    const std::vector<Permutation> within(as_size(g), cyclic_shift(d, 1));
    const Permutation pi =
        group_block(d, g, Permutation::identity(g), within);
    EXPECT_EQ(lower_bound_slots(topo, pi), 2 * ceil_div(d, g + 1));
  }
  // One group: its single coupler moves the d displaced packets in d
  // slots, one fewer than 2 * ceil(d / 2) for odd d.
  EXPECT_EQ(lower_bound_slots(Topology(3, 1), cyclic_shift(3, 1)), 3);
}

POPS_TEST(BoundNeverExceedsVerifiedSchedules) {
  // Soundness: for every pattern and random instance, a verified
  // Theorem 2 schedule meets or beats nothing below the bound — i.e.
  // bound <= measured <= theorem2_slots.
  Rng rng(9);
  for (const auto& [d, g] :
       {std::pair{1, 4}, {2, 2}, {4, 4}, {8, 3}, {3, 8}, {6, 4}}) {
    const Topology topo(d, g);
    RoutingEngine engine(topo);
    for (const auto pattern : kAllTrafficPatterns) {
      const Permutation pi = make_pattern(topo, pattern, 17);
      const int bound = lower_bound_slots(topo, pi);
      const FlatSchedule& schedule = engine.route_permutation(pi);
      EXPECT_TRUE(verify_schedule(topo, pi, schedule).ok);
      EXPECT_TRUE(bound <= schedule.slot_count());
    }
    for (int rep = 0; rep < 5; ++rep) {
      const Permutation pi =
          Permutation::random(topo.processor_count(), rng);
      EXPECT_TRUE(lower_bound_slots(topo, pi) <= theorem2_slots(topo));
    }
  }
}

POPS_TEST(HRelationBudget) {
  const Topology topo(8, 4);   // theorem2_slots = 4
  const Topology line(1, 8);   // theorem2_slots = 1
  EXPECT_EQ(h_relation_budget(topo, 0), 0);
  EXPECT_EQ(h_relation_budget(topo, 3), 12);
  EXPECT_EQ(h_relation_budget(line, 5), 5);
  EXPECT_ABORTS(h_relation_budget(topo, -1));
  // 8 phases of 2 * 2^29 slots each: 2^33 does not fit an int.
  EXPECT_EQ(h_relation_budget(Topology(1 << 29, 1), 8), 1LL << 33);
}

POPS_TEST(BoundRejectsWrongSize) {
  const Topology topo(4, 4);
  EXPECT_ABORTS(lower_bound_slots(topo, Permutation::identity(4)));
}

}  // namespace
}  // namespace pops
