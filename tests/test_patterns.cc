// Satellite: the traffic-pattern generators produce valid,
// deterministic permutations that the Theorem 2 engine routes at the
// bound, and one_to_all is an accepted optical multicast.
#include "pops/patterns.h"

#include <limits>

#include "routing/engine.h"
#include "routing/verify.h"
#include "tests/testing.h"

namespace pops {
namespace {

POPS_TEST(PatternNames) {
  EXPECT_EQ(to_string(TrafficPattern::kIdentity), "identity");
  EXPECT_EQ(to_string(TrafficPattern::kGroupReversal), "group-reversal");
  EXPECT_EQ(to_string(TrafficPattern::kPerfectShuffle),
            "perfect-shuffle");
  EXPECT_EQ(to_string(TrafficPattern::kTranspose), "transpose");
  EXPECT_EQ(to_string(TrafficPattern::kSeededRandom), "seeded-random");
}

POPS_TEST(PatternsAreWellFormedPermutations) {
  // The Permutation constructor validates bijectivity, so building
  // every pattern on every topology (square, wide, tall, odd n) is
  // already a structural test.
  for (const auto& [d, g] :
       {std::pair{1, 1}, {1, 8}, {8, 1}, {3, 3}, {4, 6}, {6, 4}, {5, 3}}) {
    const Topology topo(d, g);
    for (const auto pattern : kAllTrafficPatterns) {
      const Permutation pi = make_pattern(topo, pattern, 7);
      EXPECT_EQ(pi.size(), topo.processor_count());
    }
  }
}

POPS_TEST(PatternStructure) {
  const Topology topo(4, 4);
  EXPECT_TRUE(
      make_pattern(topo, TrafficPattern::kIdentity).is_identity());

  // Group reversal: same in-group index, mirrored group; an involution.
  const Permutation reversal =
      make_pattern(topo, TrafficPattern::kGroupReversal);
  EXPECT_EQ(reversal(0), 12);
  EXPECT_EQ(reversal(13), 1);
  for (int p = 0; p < 16; ++p) {
    EXPECT_EQ(reversal(reversal(p)), p);
    EXPECT_EQ(topo.index_in_group(reversal(p)), topo.index_in_group(p));
  }

  // Transpose of the square grid is an involution.
  const Permutation transpose =
      make_pattern(topo, TrafficPattern::kTranspose);
  EXPECT_EQ(transpose(1), 4);  // (group 0, index 1) -> (group 1, index 0)
  for (int p = 0; p < 16; ++p) {
    EXPECT_EQ(transpose(transpose(p)), p);
  }

  // Out-shuffle: first half spreads to even slots, second to odd.
  const Permutation shuffle =
      make_pattern(topo, TrafficPattern::kPerfectShuffle);
  EXPECT_EQ(shuffle(0), 0);
  EXPECT_EQ(shuffle(1), 2);
  EXPECT_EQ(shuffle(8), 1);
  EXPECT_EQ(shuffle(15), 15);
}

POPS_TEST(SeededRandomIsDeterministicPerSeed) {
  const Topology topo(8, 4);
  const Permutation a =
      make_pattern(topo, TrafficPattern::kSeededRandom, 5);
  const Permutation b =
      make_pattern(topo, TrafficPattern::kSeededRandom, 5);
  const Permutation c =
      make_pattern(topo, TrafficPattern::kSeededRandom, 6);
  EXPECT_TRUE(a.images() == b.images());
  EXPECT_FALSE(a.images() == c.images());
}

POPS_TEST(EveryPatternRoutesAtTheTheorem2Bound) {
  for (const auto& [d, g] : {std::pair{2, 2}, {4, 4}, {8, 3}, {3, 8}}) {
    const Topology topo(d, g);
    RoutingEngine engine(topo);
    for (const auto pattern : kAllTrafficPatterns) {
      const Permutation pi = make_pattern(topo, pattern, 11);
      const FlatSchedule& flat = engine.route_permutation(pi);
      EXPECT_EQ(flat.slot_count(), theorem2_slots(topo));
      EXPECT_TRUE(verify_schedule(topo, pi, flat).ok);
    }
  }
}

POPS_TEST(ArrivalGeneratorsAreDeterministicPerSeed) {
  // The serving benches depend on byte-identical demand streams: the
  // same (topology, config) pair must replay exactly, and a different
  // seed must diverge.
  const Topology topo(4, 4);
  for (const ArrivalProcess process : kAllArrivalProcesses) {
    ArrivalConfig config;
    config.process = process;
    config.seed = 42;
    ArrivalGenerator a(topo, config);
    ArrivalGenerator b(topo, config);
    config.seed = 43;
    ArrivalGenerator other(topo, config);
    bool diverged = false;
    for (int k = 0; k < 500; ++k) {
      const Demand demand = a.next();
      EXPECT_TRUE(demand == b.next());
      if (!(demand == other.next())) diverged = true;
    }
    EXPECT_TRUE(diverged);
  }
}

POPS_TEST(ArrivalStreamsAreWellFormed) {
  for (const auto& [d, g] : {std::pair{1, 1}, {1, 8}, {4, 4}, {3, 5}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    for (const ArrivalProcess process : kAllArrivalProcesses) {
      ArrivalConfig config;
      config.process = process;
      config.seed = 9;
      config.payload_flits = 3;
      ArrivalGenerator generator(topo, config);
      std::uint64_t previous_tick = 0;
      for (int k = 0; k < 300; ++k) {
        const Demand demand = generator.next();
        EXPECT_TRUE(demand.source >= 0 && demand.source < n);
        EXPECT_TRUE(demand.destination >= 0 && demand.destination < n);
        if (n > 1) EXPECT_NE(demand.source, demand.destination);
        EXPECT_EQ(demand.payload, 3);
        EXPECT_TRUE(demand.arrival_tick >= previous_tick);
        previous_tick = demand.arrival_tick;
      }
    }
  }
}

POPS_TEST(ArrivalProcessNamesAndValidation) {
  EXPECT_EQ(to_string(ArrivalProcess::kUniform), "uniform");
  EXPECT_EQ(to_string(ArrivalProcess::kZipfHotGroup), "zipf-hot-group");
  EXPECT_EQ(to_string(ArrivalProcess::kBurstyOnOff), "bursty-on-off");
  ArrivalConfig config;
  config.mean_gap_ticks = -1;
  EXPECT_ABORTS(ArrivalGenerator(Topology(2, 2), config));
  // next() doubles each mean as an int: the first mean whose doubling
  // overflows is rejected, and the largest accepted ones draw.
  constexpr int kMax = std::numeric_limits<int>::max();
  config.mean_gap_ticks = (kMax - 1) / 2 + 1;
  EXPECT_ABORTS(ArrivalGenerator(Topology(2, 2), config));
  ArrivalConfig bursty;
  bursty.process = ArrivalProcess::kBurstyOnOff;
  bursty.mean_burst_length = kMax / 2 + 1;
  EXPECT_ABORTS(ArrivalGenerator(Topology(2, 2), bursty));
  bursty.mean_burst_length = 1;
  bursty.mean_off_gap_ticks = kMax / 2 + 1;
  EXPECT_ABORTS(ArrivalGenerator(Topology(2, 2), bursty));
  bursty.mean_gap_ticks = (kMax - 1) / 2;
  bursty.mean_burst_length = kMax / 2;
  bursty.mean_off_gap_ticks = kMax / 2;
  ArrivalGenerator largest(Topology(2, 2), bursty);
  EXPECT_TRUE(largest.next().arrival_tick >= 1);
  config.mean_gap_ticks = (kMax - 1) / 2;
  ArrivalGenerator widest(Topology(2, 2), config);
  EXPECT_TRUE(widest.next().destination >= 0);
}

POPS_TEST(ZipfHotGroupSkewsTowardGroupZero) {
  // Group 0 is the hottest destination group by construction; over a
  // long stream it must receive strictly more demands than the last
  // group.
  const Topology topo(4, 8);
  ArrivalConfig config;
  config.process = ArrivalProcess::kZipfHotGroup;
  config.seed = 12;
  config.zipf_exponent = 1.2;
  ArrivalGenerator generator(topo, config);
  int hot = 0;
  int cold = 0;
  for (int k = 0; k < 4000; ++k) {
    const int group = topo.group_of(generator.next().destination);
    if (group == 0) ++hot;
    if (group == topo.g() - 1) ++cold;
  }
  EXPECT_TRUE(hot > 2 * cold);
}

POPS_TEST(OneToAllIsAnAcceptedMulticast) {
  const Topology topo(3, 3);
  Network net(topo);
  net.load_packet(Packet{-1, 4, -1, 1, 0});
  const SlotPlan slot = one_to_all(topo, 4);
  EXPECT_EQ(slot.transmissions.size(),
            as_size(topo.processor_count()));
  EXPECT_TRUE(net.execute_slot(slot));
  EXPECT_TRUE(net.ok());
  for (int p = 0; p < topo.processor_count(); ++p) {
    EXPECT_EQ(net.buffer(p).size(), std::size_t{1});
  }
  EXPECT_ABORTS(one_to_all(topo, topo.processor_count()));
}

}  // namespace
}  // namespace pops
