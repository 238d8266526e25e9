// The RoutingEngine must (a) produce schedules that are slot-for-slot
// verified across the (d, g) grid for every strategy and for
// h-relations, (b) perform no heap allocation once constructed —
// asserted by routing repeatedly and demanding that no engine-owned
// scratch arena ever grows past its size at construction — and (c)
// build Theorem 2 exactly as the plain reference builder in
// tests/schedule_util.h does.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "perm/families.h"
#include "pops/patterns.h"
#include "routing/engine.h"
#include "routing/h_relation.h"
#include "routing/verify.h"
#include "support/alloc_guard.h"
#include "support/prng.h"
#include "tests/digest.h"
#include "tests/h_relation_util.h"
#include "tests/schedule_util.h"
#include "tests/testing.h"

namespace pops {
namespace {

POPS_TEST(EngineRoutesTheGridAtTheBound) {
  Rng rng(71);
  for (const int d : {1, 2, 3, 4, 8, 9}) {
    for (const int g : {1, 2, 3, 5, 8}) {
      const Topology topo(d, g);
      const int n = topo.processor_count();
      RoutingEngine engine(topo);
      std::vector<Permutation> cases;
      cases.push_back(Permutation::identity(n));
      cases.push_back(vector_reversal(n));
      cases.push_back(group_rotation(d, g, g > 1 ? 1 : 0));
      cases.push_back(Permutation::random(n, rng));
      for (const Permutation& pi : cases) {
        const FlatSchedule& flat = engine.route_permutation(pi);
        EXPECT_EQ(flat.slot_count(), theorem2_slots(topo));
        const VerificationResult vr = verify_schedule(topo, pi, flat);
        EXPECT_TRUE(vr.ok);
        if (!vr.ok) {
          EXPECT_EQ(vr.failure, "");  // surface the reason in the log
        }
      }
    }
  }
}

POPS_TEST(EngineDirectAndBestVerify) {
  Rng rng(73);
  for (const auto& [d, g] : {std::pair{4, 4}, {8, 2}, {2, 8}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    RoutingEngine engine(topo);
    for (const Permutation& pi :
         {Permutation::random(n, rng), vector_reversal(n),
          group_rotation(d, g, 1)}) {
      // The engine keeps one permutation schedule, so each is checked
      // before the next route replaces it.
      const FlatSchedule& direct = engine.route_direct(pi);
      const int max_demand = engine.direct_max_demand();
      EXPECT_EQ(direct.slot_count(), max_demand);
      EXPECT_TRUE(verify_schedule(topo, pi, direct).ok);
      const FlatSchedule& theorem2 = engine.route_permutation(pi);
      EXPECT_EQ(theorem2.slot_count(), theorem2_slots(topo));
      EXPECT_TRUE(verify_schedule(topo, pi, theorem2).ok);

      const FlatSchedule& best = engine.route(pi, {RouteStrategy::kBest});
      // Direct wins ties.
      const bool direct_wins = max_demand <= theorem2_slots(topo);
      const RouteStrategy winner =
          direct_wins ? RouteStrategy::kDirect : RouteStrategy::kTheorem2;
      EXPECT_TRUE(engine.last_strategy() == winner);
      EXPECT_EQ(best.slot_count(),
                direct_wins ? max_demand : theorem2_slots(topo));
      EXPECT_EQ(engine.direct_max_demand(), max_demand);
      EXPECT_TRUE(verify_schedule(topo, pi, best).ok);
    }
  }
}

POPS_TEST(BestReturnsTheWinnerBitForBit) {
  // kBest measures M and builds only the shorter schedule, so it must
  // equal, transmission for transmission, what a second engine builds
  // with the winning builder alone. A permutation handed to
  // route_h_relation as n requests listed by source is one phase,
  // routed by the same rule, so it must come out identical too.
  Rng rng(77);
  for (const auto& [d, g] : {std::pair{1, 8}, {8, 1}, {3, 8}, {8, 3},
                             {4, 4}, {5, 2}, {16, 4}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    std::vector<Permutation> cases;
    for (int i = 0; i < 6; ++i) cases.push_back(Permutation::random(n, rng));
    cases.push_back(Permutation::identity(n));
    cases.push_back(vector_reversal(n));
    cases.push_back(group_rotation(d, g, g > 1 ? 1 : 0));
    cases.push_back(cyclic_shift(n, d));
    for (const auto algorithm : kAllColoringAlgorithms) {
      RouterOptions options;
      options.coloring = algorithm;
      RoutingEngine best_engine(topo, options);
      RoutingEngine builder(topo, options);
      RoutingEngine relation(topo, options);
      for (const Permutation& pi : cases) {
        const FlatSchedule& best =
            best_engine.route(pi, {RouteStrategy::kBest});
        const bool direct_wins =
            best_engine.direct_max_demand() <= theorem2_slots(topo);
        EXPECT_TRUE(best_engine.last_strategy() ==
                    (direct_wins ? RouteStrategy::kDirect
                                 : RouteStrategy::kTheorem2));
        EXPECT_TRUE(testing::same_schedule(
            best, direct_wins ? builder.route_direct(pi)
                              : builder.route_permutation(pi)));
        std::vector<Request> requests;
        for (int source = 0; source < n; ++source) {
          requests.push_back(Request{source, pi(source)});
        }
        EXPECT_TRUE(
            testing::same_schedule(best, relation.route_h_relation(requests)));
      }
    }
  }
}

POPS_TEST(EngineSteadyStateNeverGrowsScratch) {
  // The zero-allocation contract, checked both ways: scratch footprints
  // equal to the one at construction after every unverified call (no
  // arena ever reallocates) AND — in POPS_ALLOC_GUARD builds — a
  // ScopedAllocationBan over the whole loop, which additionally aborts
  // on transient allocate-free pairs that a capacity diff cannot see.
  // Permutations are generated before the ban: building a Permutation
  // allocates by design.
  // 3/8 and 8/64 color and spread H from its list (g > d); the swaps
  // run only on 3/8, where d does not divide g.
  Rng rng(74);
  for (const auto& [d, g] :
       {std::pair{1, 8}, {4, 4}, {8, 3}, {3, 8}, {16, 16}, {8, 64}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    RoutingEngine engine(topo);
    const ScratchFootprint birth = engine.scratch_footprint();
    EXPECT_TRUE(birth.units > 0);
    std::vector<Permutation> trials;
    for (int trial = 0; trial < 8; ++trial) {
      trials.push_back(trial % 2 == 0
                           ? Permutation::random(n, rng)
                           : group_rotation(d, g, trial % g));
    }
    ScopedAllocationBan ban("test: engine steady state");
    for (const Permutation& pi : trials) {
      // EXPECT_EQ streams both footprints on mismatch (the
      // ScratchFootprint operator<<), so a regression names the sizes.
      engine.route_permutation(pi);
      EXPECT_EQ(engine.scratch_footprint(), birth);
      engine.route_direct(pi);
      EXPECT_EQ(engine.scratch_footprint(), birth);
    }
    // The first verifying route adds the simulator, and nothing else
    // grows after it.
    engine.route(trials.front(), {RouteStrategy::kBest});
    const ScratchFootprint verified = engine.scratch_footprint();
    EXPECT_TRUE(verified.units > birth.units);
    for (const Permutation& pi : trials) {
      engine.route(pi, {RouteStrategy::kBest});
      EXPECT_EQ(engine.scratch_footprint(), verified);
      engine.route_permutation(pi);
      EXPECT_EQ(engine.scratch_footprint(), verified);
    }
  }
}

POPS_TEST(EngineIntermediatesAreConsistent) {
  Rng rng(75);
  // 8/3 and 5/2 end on a batch of fewer than g colors, which keeps
  // H's colors as its groups; 3/8 spreads H onto g classes.
  for (const auto& [d, g] : {std::pair{4, 3}, {1, 8}, {8, 8}, {8, 3},
                             {5, 2}, {3, 8}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    const Permutation pi = Permutation::random(n, rng);
    RoutingEngine engine(topo);
    const FlatSchedule& flat = engine.route_permutation(pi);
    // Every packet has a relay: its distribute slot's receiver.
    const std::vector<int> mids = testing::relays_by_packet(flat, n);
    for (const int mid : mids) EXPECT_TRUE(mid >= 0 && mid < n);
    // The group pair (from, to) of a transmission, as one index.
    const auto group_pair = [&topo, g = g](const Transmission& t) {
      return as_size(topo.group_of(t.source) * g +
                     topo.group_of(t.destination));
    };
    for (int slot = 0; slot + 1 < flat.slot_count(); slot += 2) {
      // Distribute: the receivers are distinct, and the packets of one
      // source group go to distinct intermediate groups (Figure 3).
      std::vector<bool> used(as_size(n), false);
      std::vector<bool> source_to_mid(as_size(g * g), false);
      for (const Transmission& t : flat.slot(slot)) {
        EXPECT_FALSE(used[as_size(t.destination)]);
        used[as_size(t.destination)] = true;
        EXPECT_FALSE(source_to_mid[group_pair(t)]);
        source_to_mid[group_pair(t)] = true;
      }
      // Deliver: each packet leaves its intermediate, and the packets
      // of one intermediate group go to distinct destination groups.
      std::vector<bool> mid_to_destination(as_size(g * g), false);
      for (const Transmission& t : flat.slot(slot + 1)) {
        EXPECT_EQ(mids[as_size(t.packet)], t.source);
        EXPECT_FALSE(mid_to_destination[group_pair(t)]);
        mid_to_destination[group_pair(t)] = true;
      }
    }
  }
}

// The most packets on one coupler: the direct schedule's length.
int max_demand(const Topology& topo, Span<const Transmission> packets) {
  std::vector<int> count(as_size(topo.coupler_count()), 0);
  int most = 0;
  for (const Transmission& p : packets) {
    const int coupler = topo.coupler(topo.group_of(p.destination),
                                     topo.group_of(p.source));
    most = std::max(most, ++count[as_size(coupler)]);
  }
  return most;
}

POPS_TEST(EngineMatchesTheReferenceTheorem2BitForBit) {
  // The engine lists H for euler-split at every shape, spreading that
  // list when g > d (2/8, 3/8, 3/16, 8/64), counting-sorts the batches
  // and writes slots in bulk; the reference (tests/schedule_util.h)
  // builds H as a graph, colors and spreads the graph, scans the list
  // once per batch and pushes one transmission at a time. Their
  // schedules must be equal, on permutations and on a permutation
  // routed as an h-relation whose requests arrive shuffled (a full
  // phase in request order). The reference colors through the same
  // euler-split kernel as the engine, so a digest of its output is
  // pinned too: a kernel that pairs or walks in another order changes
  // it.
  constexpr std::uint64_t kPinnedDigest = 0x3d327166a66e079dull;
  Rng rng(83);
  testing::Digest digest;
  int theorem2_phases = 0;
  for (const auto& [d, g] : {std::pair{1, 8}, {2, 8}, {3, 8}, {8, 3}, {4, 4},
                             {5, 2}, {7, 4}, {9, 9}, {12, 12}, {16, 4}, {16, 8},
                             {3, 16}, {8, 64}, {32, 32}, {64, 8}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    std::vector<Permutation> cases;
    for (int k = 0; k < 3; ++k) cases.push_back(Permutation::random(n, rng));
    cases.push_back(group_rotation(d, g, g > 1 ? 1 : 0));
    cases.push_back(vector_reversal(n));
    cases.push_back(make_pattern(topo, TrafficPattern::kTranspose));
    for (const auto algorithm : kAllColoringAlgorithms) {
      RouterOptions options;
      options.coloring = algorithm;
      RoutingEngine engine(topo, options);
      std::vector<int> mids;
      for (const Permutation& pi : cases) {
        std::vector<Transmission> packets;
        for (int i = 0; i < n; ++i) packets.push_back({i, pi(i), i});
        const FlatSchedule expected =
            testing::reference_theorem2(topo, packets, algorithm, mids);
        EXPECT_TRUE(testing::same_schedule(
            engine.route(pi, {RouteStrategy::kTheorem2}), expected));
        digest.add(expected);
        digest.add(mids);

        std::vector<Request> requests;
        for (int i = 0; i < n; ++i) requests.push_back(Request{i, pi(i)});
        rng.shuffle(requests);
        engine.route_h_relation(requests);
        EXPECT_EQ(engine.phase_count(), 1);
        const Span<const Transmission> phase = engine.phase_packets(0);
        // The phase takes Theorem 2 only when it is strictly shorter.
        if (max_demand(topo, phase) <= 2 * ((d + g - 1) / g)) continue;
        ++theorem2_phases;
        const FlatSchedule phase_expected =
            testing::reference_theorem2(topo, phase, algorithm, mids);
        EXPECT_TRUE(testing::same_schedule(engine.schedule(), phase_expected));
        digest.add(phase_expected);
        digest.add(mids);
      }
    }
  }
  EXPECT_TRUE(theorem2_phases > 0);
  EXPECT_EQ(digest.value(), kPinnedDigest);
}

// The union of h random permutations: degree exactly h.
std::vector<Request> permutation_union(int n, int h, Rng& rng) {
  std::vector<Request> requests;
  for (int k = 0; k < h; ++k) {
    const Permutation pi = Permutation::random(n, rng);
    for (int i = 0; i < n; ++i) requests.push_back(Request{i, pi(i)});
  }
  return requests;
}

// Routes every relation on `engine` inside a ban: no arena may grow
// past the footprint the engine has now, each phase must take exactly
// its shorter schedule, and the window must deliver.
void expect_flat_routes(RoutingEngine& engine,
                        const std::vector<std::vector<Request>>& relations) {
  const Topology& topo = engine.topology();
  const ScratchFootprint reserved = engine.scratch_footprint();
  for (const std::vector<Request>& requests : relations) {
    {
      ScopedAllocationBan ban("test: h-relation steady state");
      engine.route_h_relation(requests);
      EXPECT_EQ(engine.scratch_footprint(), reserved);
    }
    const HRelationPlan plan = h_relation_plan(engine);
    EXPECT_EQ(engine.schedule().slot_count(),
              testing::expected_plan_slots(topo, requests, plan));
    EXPECT_EQ(verify_h_relation(topo, requests, plan), "");
  }
}

POPS_TEST(HRelationSteadyStateNeverGrowsScratch) {
  // route_h_relation arms no ban of its own: its arenas grow with the
  // relation, not the topology. Once a fresh engine has reserved for
  // the largest relation of a shape (the most requests and the highest
  // degree), every relation within those bounds must route inside a
  // live ban without growing a single arena, and every result must
  // deliver on the strict simulator. An engine reserved for n requests
  // of degree 1 must do the same with every relation of degree at most
  // 1. 3/8 has g > d with d not dividing g, so spread's swaps run.
  Rng rng(76);
  int theorem2_partials = 0;
  for (const auto& [d, g] :
       {std::pair{1, 8}, {4, 4}, {3, 5}, {8, 2}, {2, 8}, {3, 8}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    constexpr int kMaxDegree = 8;
    std::vector<std::vector<Request>> relations;
    for (int h = 1; h <= kMaxDegree; ++h) {
      relations.push_back(permutation_union(n, h, rng));
    }
    // Self-requests only (the identity), then a hot sender whose
    // packets include one to itself, then the empty relation.
    std::vector<Request> selves;
    for (int p = 0; p < n; ++p) selves.push_back(Request{p, p});
    relations.push_back(selves);
    std::vector<Request> hot;
    for (int k = 0; k < kMaxDegree; ++k) {
      hot.push_back(Request{0, (k * 3) % n});
    }
    relations.push_back(hot);
    relations.emplace_back();
    // One phase of all n packets, each group's on one coupler: Theorem
    // 2 wins wherever it beats d slots, and colors a d-regular H with
    // the configured backend. Listed by source, then shuffled, so with
    // euler-split H is once a sorted list and once a graph. Less its
    // last packet, H is irregular, and alternating path colors it.
    const Permutation rotation = group_rotation(d, g, 1);
    std::vector<Request> by_source;
    for (int i = 0; i < n; ++i) by_source.push_back(Request{i, rotation(i)});
    std::vector<Request> shuffled = by_source;
    rng.shuffle(shuffled);
    std::vector<Request> partial = by_source;
    partial.pop_back();
    relations.push_back(by_source);
    relations.push_back(shuffled);
    relations.push_back(partial);
    const std::vector<std::vector<Request>> matchings = {
        selves, by_source, shuffled, partial, {}};

    for (const auto algorithm : kAllColoringAlgorithms) {
      RouterOptions options;
      options.coloring = algorithm;
      RoutingEngine engine(topo, options);
      engine.reserve_h_relation(n * kMaxDegree, kMaxDegree);
      expect_flat_routes(engine, relations);
      // A degree-1 reservation sizes no traffic multigraph, and
      // alternating path only for an irregular H: less than degree 2.
      RoutingEngine matching(topo, options);
      matching.reserve_h_relation(n, 1);
      RoutingEngine wider(topo, options);
      wider.reserve_h_relation(n, 2);
      EXPECT_TRUE(matching.scratch_footprint().units <
                  wider.scratch_footprint().units);
      expect_flat_routes(matching, matchings);
      // Theorem 2 wins the partial rotation wherever it beats d slots.
      const int theorem2 = 2 * ((d + g - 1) / g);
      if (theorem2 < d) {
        EXPECT_EQ(matching.route_h_relation(partial).slot_count(), theorem2);
        ++theorem2_partials;
      }
    }
  }
  EXPECT_TRUE(theorem2_partials > 0);
}

// Every request of the last relation routed on `engine` lands in
// exactly one phase, each phase lists its requests in ascending order,
// no phase sends or receives twice at one processor (a partial
// permutation), and the phases tile the schedule in order.
void expect_phases_partition(const RoutingEngine& engine,
                             const std::vector<Request>& requests) {
  const int n = engine.topology().processor_count();
  std::vector<int> phase_of(requests.size(), -1);
  for (int c = 0; c < engine.phase_count(); ++c) {
    std::vector<bool> sends(as_size(n), false);
    std::vector<bool> receives(as_size(n), false);
    int previous = -1;
    for (const Transmission& packet : engine.phase_packets(c)) {
      const int e = packet.packet;
      EXPECT_TRUE(e > previous);
      previous = e;
      EXPECT_EQ(phase_of[as_size(e)], -1);
      phase_of[as_size(e)] = c;
      const Request& request = requests[as_size(e)];
      EXPECT_EQ(packet.source, request.source);
      EXPECT_EQ(packet.destination, request.destination);
      EXPECT_FALSE(sends[as_size(request.source)]);
      EXPECT_FALSE(receives[as_size(request.destination)]);
      sends[as_size(request.source)] = true;
      receives[as_size(request.destination)] = true;
    }
  }
  for (const int c : phase_of) EXPECT_TRUE(c >= 0);
  EXPECT_ABORTS(engine.phase_packets(engine.phase_count()));
  const Span<const int> offsets = engine.phase_slot_offsets();
  EXPECT_EQ(offsets.count(), engine.phase_count() + 1);
  EXPECT_EQ(offsets[0], 0);
  for (int c = 0; c < engine.phase_count(); ++c) {
    EXPECT_TRUE(offsets[as_size(c)] < offsets[as_size(c + 1)]);
  }
  EXPECT_EQ(offsets[as_size(engine.phase_count())],
            engine.schedule().slot_count());
}

POPS_TEST(HRelationPhasesPartitionTheRequests) {
  Rng rng(77);
  {
    const Topology topo(4, 3);
    std::vector<Request> requests =
        permutation_union(topo.processor_count(), 3, rng);
    requests.push_back(Request{0, 0});
    RoutingEngine engine(topo);
    engine.route_h_relation(requests);
    EXPECT_EQ(engine.phase_count(), 4);
    expect_phases_partition(engine, requests);
  }
  // The degree-1 boundary at scale: one repeated destination (the last
  // request's) or source (the second's) in a permutation makes two
  // phases; the permutation shuffled and cut to n - 1 requests is one
  // phase, the requests in order with ids 0..n - 2.
  for (const auto& [d, g] : {std::pair{8, 64}, {32, 32}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    const Permutation pi = Permutation::random(n, rng);
    std::vector<Request> permutation;
    for (int i = 0; i < n; ++i) permutation.push_back(Request{i, pi(i)});
    std::vector<Request> repeated_destination = permutation;
    repeated_destination[as_size(n - 1)].destination = pi(0);
    std::vector<Request> repeated_source = permutation;
    repeated_source[1].source = 0;
    std::vector<Request> cut = permutation;
    rng.shuffle(cut);
    cut.pop_back();
    RoutingEngine engine(topo);
    for (const std::vector<Request>& requests :
         {repeated_destination, repeated_source}) {
      engine.route_h_relation(requests);
      EXPECT_EQ(engine.phase_count(), 2);
      expect_phases_partition(engine, requests);
    }
    engine.route_h_relation(cut);
    EXPECT_EQ(engine.phase_count(), 1);
    expect_phases_partition(engine, cut);
    const Span<const Transmission> phase = engine.phase_packets(0);
    EXPECT_EQ(phase.count(), n - 1);
    for (int e = 0; e < phase.count(); ++e) {
      EXPECT_EQ(phase[as_size(e)].source, cut[as_size(e)].source);
      EXPECT_EQ(phase[as_size(e)].destination, cut[as_size(e)].destination);
      EXPECT_EQ(phase[as_size(e)].packet, e);
    }
  }
}

// True iff the last h-relations of `a` and `b` have the same phases:
// the same slot offsets and, phase by phase, the same packets.
bool same_phases(const RoutingEngine& a, const RoutingEngine& b) {
  const auto same_packet = [](const Transmission& x, const Transmission& y) {
    return x.source == y.source && x.destination == y.destination &&
           x.packet == y.packet;
  };
  const Span<const int> offsets = a.phase_slot_offsets();
  bool same = a.phase_count() == b.phase_count() &&
              std::equal(offsets.begin(), offsets.end(),
                         b.phase_slot_offsets().begin(),
                         b.phase_slot_offsets().end());
  for (int c = 0; same && c < a.phase_count(); ++c) {
    const Span<const Transmission> pa = a.phase_packets(c);
    const Span<const Transmission> pb = b.phase_packets(c);
    same = std::equal(pa.begin(), pa.end(), pb.begin(), pb.end(), same_packet);
  }
  return same;
}

POPS_TEST(PermutationAndRelationRoutesShareOnePacketListAndSchedule) {
  // A relation with more requests than n grows the shared packet list
  // and schedule. A permutation route then overwrites both and empties
  // the phase view, and the next relation still routes exactly as on a
  // fresh engine. schedule() is always the last route's schedule.
  Rng rng(79);
  for (const auto& [d, g] : {std::pair{4, 4}, {3, 8}, {8, 3}, {1, 8}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    for (const auto algorithm : kAllColoringAlgorithms) {
      RouterOptions options;
      options.coloring = algorithm;
      RoutingEngine engine(topo, options);
      const std::vector<Request> first = permutation_union(n, 3, rng);
      const std::vector<Request> second = permutation_union(n, 2, rng);
      const Permutation pi = Permutation::random(n, rng);

      EXPECT_TRUE(&engine.route_h_relation(first) == &engine.schedule());
      EXPECT_EQ(engine.phase_count(), 3);

      // Each fresh engine routes one input only.
      RoutingEngine fresh_permutation(topo, options);
      EXPECT_TRUE(&engine.route(pi, {RouteStrategy::kBest}) ==
                  &engine.schedule());
      EXPECT_TRUE(testing::same_schedule(
          engine.schedule(),
          fresh_permutation.route(pi, {RouteStrategy::kBest})));
      EXPECT_EQ(engine.phase_count(), 0);
      EXPECT_TRUE(engine.phase_slot_offsets().empty());
      EXPECT_ABORTS(engine.phase_packets(0));
      const HRelationPlan none = h_relation_plan(engine);
      EXPECT_EQ(none.h, 0);
      EXPECT_TRUE(none.phases.empty());

      RoutingEngine fresh_relation(topo, options);
      fresh_relation.route_h_relation(second);
      engine.route_h_relation(second);
      EXPECT_TRUE(
          testing::same_schedule(engine.schedule(), fresh_relation.schedule()));
      EXPECT_EQ(engine.phase_count(), 2);
      EXPECT_TRUE(same_phases(engine, fresh_relation));
      EXPECT_EQ(verify_h_relation(topo, second, h_relation_plan(engine)), "");
    }
  }
}

POPS_TEST(EngineRejectsShapesWhoseSchedulesOverflowInt) {
  // A schedule holds up to 2n transmissions, counted in ints. Topology
  // accepts n = 2^30, so the engine must refuse it before reserving
  // anything, and theorem2_slots must refuse any shape whose 2n
  // overflows.
  EXPECT_ABORTS_WITH(RoutingEngine(Topology(1 << 15, 1 << 15)),
                     "2 * d * g to fit an int");
  EXPECT_ABORTS_WITH(theorem2_slots(Topology((1 << 30) + 1, 1)),
                     "2 * d * g to fit an int");
  EXPECT_EQ(theorem2_slots(Topology(1 << 29, 1)), 1 << 30);
  // Two transmissions per request must fit an int too. The length
  // check fires before any element is read, so the view needs no
  // storage behind it.
  RoutingEngine engine(Topology(2, 2));
  const Span<const Request> too_many(
      nullptr, as_size(std::numeric_limits<int>::max() / 2) + 1);
  EXPECT_ABORTS_WITH(engine.route_h_relation(too_many),
                     "more than INT_MAX / 2 requests");
  EXPECT_ABORTS_WITH(
      engine.reserve_h_relation(std::numeric_limits<int>::max() / 2 + 1, 1),
      "more than INT_MAX / 2 requests");
}

}  // namespace
}  // namespace pops
