// Tests for support/alloc_guard: counters, ban/allow scoping, and the
// seeded-violation negative paths proving the ban is live — a vector
// growing past its capacity inside a ban, an engine constructed inside
// a ban, and a TrafficServer whose arena reserves were deliberately
// shrunk (ServerConfig::debug_shrink_reserves) tripping the window
// ban. The binary builds in every configuration; without
// POPS_ALLOC_GUARD it instead asserts that the no-op guard stays
// inert.
#include "support/alloc_guard.h"

#include <vector>

#include "perm/families.h"
#include "pops/patterns.h"
#include "routing/engine.h"
#include "serve/traffic_server.h"
#include "support/prng.h"
#include "tests/testing.h"

namespace pops {
namespace {

#if POPS_ALLOC_GUARD

POPS_TEST(CountersSeeAllocationsAndFrees) {
  const AllocationCounter before = thread_allocation_counter();
  {
    std::vector<long long> block(1024);
    EXPECT_EQ(block.size(), std::size_t{1024});
  }
  const AllocationCounter after = thread_allocation_counter();
  EXPECT_TRUE(after.allocations > before.allocations);
  EXPECT_TRUE(after.deallocations > before.deallocations);
  EXPECT_TRUE(after.bytes_allocated >=
              before.bytes_allocated +
                  static_cast<long long>(1024 * sizeof(long long)));
}

POPS_TEST(BanWithinReservedCapacityIsClean) {
  std::vector<int> values;
  values.reserve(64);
  ScopedAllocationBan ban("test: push within capacity");
  EXPECT_TRUE(allocation_ban_active());
  for (int i = 0; i < 64; ++i) values.push_back(i);
  EXPECT_EQ(values.size(), std::size_t{64});
}

POPS_TEST(BanAbortsOnVectorGrowthPastCapacity) {
  EXPECT_ABORTS_WITH(
      {
        std::vector<int> values;
        values.reserve(4);
        ScopedAllocationBan ban("test: growth past capacity");
        for (int i = 0; i < 64; ++i) values.push_back(i);
      },
      "POPS_ALLOC_GUARD");
  EXPECT_ABORTS_WITH(
      {
        std::vector<int> values;
        values.reserve(4);
        ScopedAllocationBan ban("test: growth past capacity");
        for (int i = 0; i < 64; ++i) values.push_back(i);
      },
      "banned scope 'test: growth past capacity'");
}

POPS_TEST(AllowScopeLiftsTheBan) {
  ScopedAllocationBan ban("test: outer ban");
  ScopedAllocationAllow allow;
  EXPECT_FALSE(allocation_ban_active());
  std::vector<int> survives(256);
  EXPECT_EQ(survives.size(), std::size_t{256});
}

POPS_TEST(InnermostScopeIsReported) {
  EXPECT_ABORTS_WITH(
      {
        ScopedAllocationBan outer("test: outer scope");
        ScopedAllocationBan inner("test: inner scope");
        std::vector<int> boom(16);
        (void)boom;
      },
      "banned scope 'test: inner scope'");
}

POPS_TEST(EngineConstructionInsideBanAborts) {
  // The constructor sizes every routing arena, so constructing an
  // engine is where its allocations happen: under an external ban it
  // must abort.
  EXPECT_ABORTS_WITH(
      {
        const Topology topo(4, 4);
        ScopedAllocationBan ban("test: engine construction");
        RoutingEngine engine(topo);
      },
      "banned scope 'test: engine construction'");
}

// Routes a freshly constructed `engine` (POPS(4, 4)) every way under
// the external ban `scope`: with each builder, and with kBest on inputs
// each builder wins. Construction alone must have sized every arena;
// the first kBest route builds the simulator under the engine's own
// allowance and runs it inside the ban.
void route_every_way_after_construction(RoutingEngine& engine,
                                        const char* scope) {
  const Topology& topo = engine.topology();
  Rng rng(7);
  const Permutation steady =
      Permutation::random(topo.processor_count(), rng);
  // All d packets of a group share one coupler, so Theorem 2 wins.
  const Permutation rotation = group_rotation(topo.d(), topo.g(), 1);
  ScopedAllocationBan ban(scope);
  EXPECT_TRUE(engine.route_permutation(steady).slot_count() > 0);
  EXPECT_TRUE(engine.route_direct(steady).slot_count() > 0);
  EXPECT_TRUE(
      engine.route(steady, {RouteStrategy::kTheorem2}).slot_count() > 0);
  EXPECT_TRUE(engine.route(steady, {RouteStrategy::kBest}).slot_count() > 0);
  EXPECT_TRUE(engine.route(rotation, {RouteStrategy::kBest}).slot_count() >
              0);
  EXPECT_TRUE(engine.last_strategy() == RouteStrategy::kTheorem2);
}

POPS_TEST(WarmEngineInsideBanIsClean) {
  RoutingEngine engine(Topology(4, 4));
  route_every_way_after_construction(engine, "test: warm engine route");
}

POPS_TEST(EngineConstructionInsideBanAbortsForEveryColoringBackend) {
  // Same seeded violation as above, on each coloring backend: the
  // constructor sizes that backend's flat scratch (slot tables, or the
  // padded edge array and walk arrays), so it aborts under a ban.
  for (const auto algorithm : kAllColoringAlgorithms) {
    EXPECT_ABORTS_WITH(
        {
          const Topology topo(4, 4);
          RouterOptions options;
          options.coloring = algorithm;
          ScopedAllocationBan ban("test: backend engine construction");
          RoutingEngine engine(topo, options);
        },
        "banned scope 'test: backend engine construction'");
  }
}

POPS_TEST(WarmEngineInsideBanIsCleanForEveryColoringBackend) {
  // The positive control: every coloring backend runs on flat scratch
  // that the constructor sized, so a fresh engine routes under a live
  // external ban without tripping it — including the engine's own
  // entry-point ban underneath.
  for (const auto algorithm : kAllColoringAlgorithms) {
    RouterOptions options;
    options.coloring = algorithm;
    RoutingEngine engine(Topology(4, 4), options);
    route_every_way_after_construction(engine, "test: warm backend route");
  }
}

POPS_TEST(ShrunkServerReservesTripTheWindowBan) {
  // debug_shrink_reserves skips the constructor's arena reserves, and
  // every window runs under the ban: the first window's scratch sizing
  // must abort inside the banned window scope.
  EXPECT_ABORTS_WITH(
      {
        const Topology topo(4, 4);
        ServerConfig config;
        config.debug_shrink_reserves = true;
        TrafficServer server(topo, config);
        ArrivalConfig arrivals;
        arrivals.seed = 3;
        ArrivalGenerator generator(topo, arrivals);
        for (int i = 0; i < 4096; ++i) server.submit(generator.next());
        server.flush();
      },
      "banned scope 'TrafficServer::execute_window'");
}

POPS_TEST(ProperlyReservedServerSoaksCleanUnderGuard) {
  // The positive control for the test above: identical traffic, normal
  // construction — hundreds of windows, every one inside the window
  // ban, no abort.
  const Topology topo(4, 4);
  TrafficServer server(topo);
  ArrivalConfig arrivals;
  arrivals.seed = 3;
  ArrivalGenerator generator(topo, arrivals);
  for (int i = 0; i < 4096; ++i) server.submit(generator.next());
  server.flush();
  EXPECT_TRUE(server.stats().windows_routed > 100);
  EXPECT_TRUE(server.stats().slots_executed <= server.stats().budget_slots);
}

#else  // !POPS_ALLOC_GUARD

POPS_TEST(DisabledGuardIsInert) {
  ScopedAllocationBan ban("test: no-op build");
  ScopedAllocationAllow allow;
  std::vector<int> survives(256);
  EXPECT_EQ(survives.size(), std::size_t{256});
  EXPECT_FALSE(allocation_ban_active());
  const AllocationCounter counter = thread_allocation_counter();
  EXPECT_EQ(counter.allocations, 0LL);
  EXPECT_EQ(counter.deallocations, 0LL);
  EXPECT_EQ(counter.bytes_allocated, 0LL);
}

#endif  // POPS_ALLOC_GUARD

}  // namespace
}  // namespace pops
