// Multi-threaded smokes for the thread-safety layer, run under TSan in
// CI: two independent engines routing disjoint topologies on two
// threads (the BatchRouter confinement discipline), concurrent
// submitters sharing one mutex-guarded TrafficServer, the Mutex
// wrapper's exclusion, and the thread-locality of the allocation
// guard. Expectation macros are not thread-safe, so worker threads
// record into atomics and the main thread asserts after join.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "pops/patterns.h"
#include "routing/engine.h"
#include "serve/traffic_server.h"
#include "support/alloc_guard.h"
#include "support/mutex.h"
#include "support/prng.h"
#include "tests/testing.h"

namespace pops {
namespace {

POPS_TEST(TwoEnginesOnTwoThreadsRouteDisjointTopologies) {
  std::atomic<int> bad_schedules{0};
  const auto worker = [&bad_schedules](int d, int g, std::uint64_t seed) {
    const Topology topo(d, g);
    RoutingEngine engine(topo);
    Rng rng(seed);
    for (int trial = 0; trial < 200; ++trial) {
      const Permutation pi =
          Permutation::random(topo.processor_count(), rng);
      const FlatSchedule& schedule =
          engine.route(pi, {RouteStrategy::kBest});
      // kBest verifies the schedule it returns on the engine's internal
      // simulator and never exceeds the Theorem 2 bound.
      if (schedule.slot_count() < 1 ||
          schedule.slot_count() > theorem2_slots(topo)) {
        ++bad_schedules;
      }
    }
  };
  std::thread a(worker, 4, 5, std::uint64_t{11});
  std::thread b(worker, 3, 7, std::uint64_t{12});
  a.join();
  b.join();
  EXPECT_EQ(bad_schedules.load(), 0);
}

POPS_TEST(ConcurrentSubmittersShareOneServer) {
  const Topology topo(4, 4);
  TrafficServer server(topo);
  constexpr int kThreads = 2;
  constexpr int kDemandsPerThread = 600;
  const auto worker = [&server, &topo](std::uint64_t seed) {
    ArrivalConfig config;
    config.seed = seed;
    ArrivalGenerator generator(topo, config);
    for (int i = 0; i < kDemandsPerThread; ++i) {
      server.submit(generator.next());
    }
  };
  std::thread a(worker, std::uint64_t{101});
  std::thread b(worker, std::uint64_t{202});
  a.join();
  b.join();
  server.flush();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.demands_routed,
            static_cast<long long>(kThreads * kDemandsPerThread));
  EXPECT_TRUE(stats.windows_routed > 0);
  // Every window stayed within its h-relation budget, interleaving or
  // not.
  EXPECT_TRUE(stats.slots_executed <= stats.budget_slots);
  EXPECT_EQ(server.pending_demands(), 0);
}

POPS_TEST(MutexProvidesExclusion) {
  Mutex mu;
  long long counter = 0;  // guarded by mu (by hand in this test)
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter,
            static_cast<long long>(kThreads) * kIncrements);
}

#if POPS_ALLOC_GUARD

POPS_TEST(AllocationBanIsThreadLocal) {
  // A ban on thread A must not constrain thread B: B allocates freely
  // while A sits inside an armed ban. The stage handshake keeps A's
  // ban provably alive across B's allocation.
  std::atomic<int> stage{0};
  std::atomic<bool> allocated{false};
  std::thread banned([&stage] {
    ScopedAllocationBan ban("test: thread-local ban");
    stage.store(1);
    while (stage.load() < 2) {
    }
  });
  std::thread allocating([&stage, &allocated] {
    while (stage.load() < 1) {
    }
    std::vector<int> block(4096, 1);
    allocated.store(block[0] == 1);
    stage.store(2);
  });
  banned.join();
  allocating.join();
  EXPECT_TRUE(allocated.load());
}

#endif  // POPS_ALLOC_GUARD

}  // namespace
}  // namespace pops
