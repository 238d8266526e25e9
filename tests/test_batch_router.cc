// BatchRouter contract tests: batch output must be bitwise identical
// to routing the same permutations sequentially on one engine (for
// every coloring backend and strategy, at one and several threads, on
// fixed and seeded random shapes and on the small and medium bench
// tiers' shapes; the one-shot route() must match too), also when two
// client threads share one router, and the pool's scratch footprint
// must stay flat across a soak — the no-allocation-after-construction
// claim, checked both by footprint diff and by the per-engine
// allocation bans in POPS_ALLOC_GUARD builds.
#include <algorithm>
#include <initializer_list>
#include <thread>
#include <utility>
#include <vector>

#include "bench/tiers.h"
#include "perm/families.h"
#include "routing/batch_router.h"
#include "routing/engine.h"
#include "routing/verify.h"
#include "support/prng.h"
#include "tests/schedule_util.h"
#include "tests/testing.h"

namespace pops {
namespace {

// Routes `perms` through a BatchRouter of each thread count on the
// coloring backend `algorithm`, with every strategy, and expects each
// result to equal a sequential engine's bit for bit and to pass the
// strict simulator. On the default backend the one-shot route() must
// match too.
void expect_batch_matches_sequential(const Topology& topo,
                                     const std::vector<Permutation>& perms,
                                     ColoringAlgorithm algorithm,
                                     std::initializer_list<int> thread_counts) {
  // The construction is deterministic for a fixed engine configuration,
  // so every worker's engine — and this sequential reference on the
  // same backend — must emit the exact same transmissions.
  RouterOptions engine_options;
  engine_options.coloring = algorithm;
  RoutingEngine sequential(topo, engine_options);
  for (const int threads : thread_counts) {
    BatchRouterConfig config;
    config.threads = threads;
    config.engine = engine_options;
    BatchRouter router(topo, config);
    EXPECT_EQ(router.thread_count(), threads);
    EXPECT_EQ(router.topology().processor_count(), topo.processor_count());
    for (const RouteStrategy strategy :
         {RouteStrategy::kDirect, RouteStrategy::kTheorem2,
          RouteStrategy::kBest}) {
      const RouteOptions options{strategy};
      std::vector<FlatSchedule> results(perms.size());
      router.route_batch(perms, results, options);
      for (std::size_t i = 0; i < perms.size(); ++i) {
        const FlatSchedule& expected = sequential.route(perms[i], options);
        EXPECT_TRUE(testing::same_schedule(results[i], expected));
        EXPECT_TRUE(verify_schedule(topo, perms[i], results[i]).ok);
        // The one-shot route() runs a transient engine on the default
        // backend.
        if (algorithm != RouterOptions{}.coloring) continue;
        const RouteResult one_shot = route(topo, perms[i], options);
        EXPECT_TRUE(testing::same_schedule(one_shot.schedule, expected));
        EXPECT_TRUE(one_shot.strategy == sequential.last_strategy());
        EXPECT_EQ(one_shot.slot_count, expected.slot_count());
      }
    }
  }
}

POPS_TEST(BatchMatchesSequentialEngineAcrossStrategies) {
  Rng rng(81);
  // Odd d makes euler-split peel matchings with its seeded random walk.
  // 7/4 and 5/2 leave a last batch of fewer than g colors, and 3/8
  // spreads H onto more classes than it has colors.
  std::vector<std::pair<int, int>> shapes = {{1, 4}, {4, 4}, {8, 3},
                                             {3, 4}, {5, 3}, {7, 4},
                                             {5, 2}, {3, 8}};
  // Seeded random shapes with d, g <= 12; the first has d == 1 and the
  // second g == 1, so both degenerate cases occur.
  Rng shape_rng(88);
  for (int k = 0; k < 6; ++k) {
    const int d = k == 0 ? 1 : shape_rng.uniform_int(1, 12);
    const int g = k == 1 ? 1 : shape_rng.uniform_int(1, 12);
    shapes.emplace_back(d, g);
  }
  for (const auto& [d, g] : shapes) {
    const Topology topo(d, g);
    std::vector<Permutation> perms;
    for (int i = 0; i < 12; ++i) {
      perms.push_back(Permutation::random(topo.processor_count(), rng));
    }
    for (const auto algorithm : kAllColoringAlgorithms) {
      expect_batch_matches_sequential(topo, perms, algorithm, {1, 2, 4});
    }
  }
  // Every shape of the small and medium bench tiers, up to n = 4096
  // (64/64, 128/32, 32/128): a few permutations each, on two threads
  // and the default backend.
  std::vector<std::pair<int, int>> tier_shapes;
  for (const char* name : {"small", "medium"}) {
    for (const bench::GridPoint point : bench::tier_by_name(name).grid) {
      const std::pair<int, int> shape{point.d, point.g};
      if (std::find(tier_shapes.begin(), tier_shapes.end(), shape) ==
          tier_shapes.end()) {
        tier_shapes.push_back(shape);
      }
    }
  }
  for (const auto& [d, g] : tier_shapes) {
    const Topology topo(d, g);
    std::vector<Permutation> perms;
    for (int i = 0; i < 3; ++i) {
      perms.push_back(Permutation::random(topo.processor_count(), rng));
    }
    expect_batch_matches_sequential(topo, perms, RouterOptions{}.coloring,
                                    {2});
  }
}

POPS_TEST(MoreThreadsThanJobs) {
  Rng rng(83);
  const Topology topo(2, 4);
  BatchRouterConfig config;
  config.threads = 8;
  BatchRouter router(topo, config);
  std::vector<Permutation> perms;
  for (int i = 0; i < 3; ++i) {
    perms.push_back(Permutation::random(8, rng));
  }
  std::vector<FlatSchedule> results(perms.size());
  router.route_batch(perms, results);
  RoutingEngine sequential(topo);
  for (std::size_t i = 0; i < perms.size(); ++i) {
    EXPECT_TRUE(
        testing::same_schedule(results[i], sequential.route(perms[i])));
  }
}

POPS_TEST(EmptyBatchIsANoOp) {
  const Topology topo(2, 2);
  BatchRouter router(topo);
  std::vector<Permutation> no_perms;
  std::vector<FlatSchedule> no_results;
  router.route_batch(no_perms, no_results);
}

POPS_TEST(BackToBackBatchesReuseTheSamePool) {
  // Regression guard for the batch state machine: consecutive bulk
  // calls must not leak claim state from one batch into the next.
  Rng rng(84);
  const Topology topo(4, 2);
  BatchRouterConfig config;
  config.threads = 3;
  BatchRouter router(topo, config);
  RoutingEngine sequential(topo);
  for (int round = 0; round < 10; ++round) {
    std::vector<Permutation> perms;
    for (int i = 0; i < 1 + round % 5; ++i) {
      perms.push_back(Permutation::random(8, rng));
    }
    std::vector<FlatSchedule> results(perms.size());
    router.route_batch(perms, results);
    for (std::size_t i = 0; i < perms.size(); ++i) {
      EXPECT_TRUE(
          testing::same_schedule(results[i], sequential.route(perms[i])));
    }
  }
}

POPS_TEST(ConcurrentCallersAreSerialized) {
  // Two client threads share one router, each routing its own half of a
  // seeded pool, round after round, with kBest so the workers verify
  // too. In round r, client c routes the first 1 + (r + c) % 8
  // permutations of its half into slots [8r, 8r + 8) of its own result
  // array; the rest of those slots must stay empty.
  Rng rng(87);
  const Topology topo(4, 4);
  constexpr int kHalf = 8;
  constexpr int kRounds = 25;
  std::vector<Permutation> pool;
  for (int i = 0; i < 2 * kHalf; ++i) {
    pool.push_back(Permutation::random(topo.processor_count(), rng));
  }
  BatchRouterConfig config;
  config.threads = 3;
  BatchRouter router(topo, config);
  const RouteOptions options{RouteStrategy::kBest};
  const auto batch_size = [](int c, int round) {
    return 1 + (round + c) % kHalf;
  };
  std::vector<std::vector<FlatSchedule>> results(
      2, std::vector<FlatSchedule>(kHalf * kRounds));
  const auto client = [&](int c) {
    const Permutation* half = pool.data() + c * kHalf;
    for (int round = 0; round < kRounds; ++round) {
      const std::size_t count = as_size(batch_size(c, round));
      FlatSchedule* row = results[as_size(c)].data() + round * kHalf;
      router.route_batch(Span<const Permutation>(half, count),
                         Span<FlatSchedule>(row, count), options);
    }
  };
  std::thread first(client, 0);
  std::thread second(client, 1);
  first.join();
  second.join();
  RoutingEngine sequential(topo);
  for (int c = 0; c < 2; ++c) {
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kHalf; ++i) {
        const FlatSchedule& result =
            results[as_size(c)][as_size(round * kHalf + i)];
        if (i >= batch_size(c, round)) {
          EXPECT_EQ(result.slot_count(), 0);
          continue;
        }
        EXPECT_TRUE(testing::same_schedule(
            result, sequential.route(pool[as_size(c * kHalf + i)], options)));
      }
    }
  }
}

POPS_TEST(FootprintStaysFlatAcrossSoak) {
  Rng rng(85);
  const Topology topo(8, 4);
  const int n = topo.processor_count();
  std::vector<Permutation> perms;
  for (int i = 0; i < 16; ++i) {
    perms.push_back(Permutation::random(n, rng));
  }
  std::vector<FlatSchedule> results(perms.size());
  BatchRouterConfig config;
  config.threads = 2;
  BatchRouter router(topo, config);
  const RouteOptions options{RouteStrategy::kBest};
  // The engines are final from construction: arenas sized by their
  // constructors, simulators built by reserve_verification().
  const ScratchFootprint warm = router.scratch_footprint();
  EXPECT_TRUE(warm.units > 0);
  // One pass grows the caller-owned result slots to their steady-state
  // shapes; after that, nothing grows anywhere.
  router.route_batch(perms, results, options);
  EXPECT_EQ(router.scratch_footprint(), warm);
  const auto result_capacity = [&results] {
    std::size_t total = 0;
    for (const FlatSchedule& schedule : results) {
      total += schedule.transmission_capacity();
      total += schedule.slot_capacity();
    }
    return total;
  };
  const std::size_t warm_results = result_capacity();
  for (int round = 0; round < 6; ++round) {
    router.route_batch(perms, results, options);
    EXPECT_EQ(router.scratch_footprint(), warm);
    EXPECT_EQ(result_capacity(), warm_results);
  }
}

POPS_TEST(RouteBatchRejectsSizeMismatch) {
  Rng rng(86);
  const Topology topo(2, 2);
  BatchRouter router(topo);
  std::vector<Permutation> perms{Permutation::random(4, rng),
                                 Permutation::random(4, rng)};
  std::vector<FlatSchedule> results(1);
  EXPECT_ABORTS_WITH(router.route_batch(perms, results),
                     "one result slot per permutation");
}

}  // namespace
}  // namespace pops
