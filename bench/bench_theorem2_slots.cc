// Experiment E1 — the Theorem 2 table.
//
// Paper claim: POPS(d,g) routes ANY permutation in 1 slot (d = 1) and
// 2*ceil(d/g) slots (d > 1). The table sweeps the tier's (d, g) grid and
// several permutation classes; "measured" is the slot count of an
// executed, verified schedule. Every row must satisfy measured == formula.
#include <vector>

#include "bench_common.h"
#include "perm/families.h"
#include "pops/network.h"
#include "routing/batch_router.h"
#include "routing/engine.h"
#include "support/prng.h"
#include "support/table.h"

namespace pops::bench {
namespace {

void print_tables() {
  std::cout << "=== E1: Theorem 2 slot counts (measured vs. formula) ===\n";
  Table table({"topology", "n", "formula", "random", "derangement",
               "reversal", "group-rot", "identity"});
  Rng rng(1);
  for (const int d : tier().table_axis) {
    for (const int g : tier().table_axis) {
      const Topology topo(d, g);
      const int n = topo.processor_count();
      const int random_slots =
          verified_slot_count(topo, Permutation::random(n, rng));
      const int derangement_slots =
          n > 1
              ? verified_slot_count(topo,
                                    Permutation::random_derangement(n, rng))
              : random_slots;
      const int reversal_slots =
          verified_slot_count(topo, vector_reversal(n));
      const int rot_slots = verified_slot_count(
          topo, group_rotation(d, g, g > 1 ? 1 : 0));
      const int id_slots =
          verified_slot_count(topo, Permutation::identity(n));
      table.add(topo.to_string(), n, theorem2_slots(topo), random_slots,
                derangement_slots, reversal_slots, rot_slots, id_slots);
    }
  }
  table.print(std::cout);
  std::cout << "Expected shape: every measured column equals the formula "
               "column.\n\n";
}

// The engine-vs-wrapper throughput counter: perms_per_sec is permutations
// routed per second at fixed (d, g). Both variants run the identical
// Theorem 2 construction; the route() wrapper additionally pays a fresh
// RoutingEngine (all scratch arenas) plus the result copy per call, so
// the engine row must be visibly faster.
void BM_RoutePermutation(benchmark::State& state) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  Rng rng(42);
  const Permutation pi = Permutation::random(topo.processor_count(), rng);
  const RouteOptions options{RouteStrategy::kTheorem2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(route(topo, pi, options));
  }
  state.SetItemsProcessed(state.iterations());  // permutations routed
  state.counters["perms_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_EngineRoutePermutation(benchmark::State& state) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  Rng rng(42);
  const Permutation pi = Permutation::random(topo.processor_count(), rng);
  RoutingEngine engine(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&engine.route_permutation(pi));
  }
  state.SetItemsProcessed(state.iterations());  // permutations routed
  state.counters["perms_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_RouteAndExecute(benchmark::State& state) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  Rng rng(43);
  const Permutation pi = Permutation::random(topo.processor_count(), rng);
  const RouteResult plan = route(topo, pi, {RouteStrategy::kTheorem2});
  Network net(topo);
  for (auto _ : state) {
    net.load_permutation_traffic(pi);
    net.execute(plan.schedule);
    benchmark::DoNotOptimize(net.all_delivered());
  }
  state.SetItemsProcessed(state.iterations() * topo.processor_count());
}

// Batch throughput: one route_batch call per iteration over
// tier().batch_perms pre-generated random permutations, swept across
// the tier's worker counts (the third Args dimension). perms_per_sec
// at `threads = t` over perms_per_sec of BM_EngineRoutePermutation is
// the pool's scaling factor — instances share nothing, so it should
// track the core count until memory bandwidth saturates.
void BM_BatchRoute(benchmark::State& state) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  Rng rng(44);
  std::vector<Permutation> perms;
  perms.reserve(as_size(tier().batch_perms));
  for (int i = 0; i < tier().batch_perms; ++i) {
    perms.push_back(Permutation::random(topo.processor_count(), rng));
  }
  std::vector<FlatSchedule> results(perms.size());
  BatchRouterConfig config;
  config.threads = static_cast<int>(state.range(2));
  BatchRouter router(topo, config);
  const RouteOptions options{RouteStrategy::kTheorem2};
  router.route_batch(perms, results, options);  // warm the result slots
  for (auto _ : state) {
    router.route_batch(perms, results, options);
  }
  const double routed =
      static_cast<double>(state.iterations()) * perms.size();
  state.SetItemsProcessed(static_cast<long long>(routed));
  state.counters["perms_per_sec"] =
      benchmark::Counter(routed, benchmark::Counter::kIsRate);
}

void register_tier_benches() {
  auto* route = benchmark::RegisterBenchmark("BM_RoutePermutation",
                                             BM_RoutePermutation);
  auto* engine = benchmark::RegisterBenchmark("BM_EngineRoutePermutation",
                                              BM_EngineRoutePermutation);
  auto* execute = benchmark::RegisterBenchmark("BM_RouteAndExecute",
                                               BM_RouteAndExecute);
  auto* batch =
      benchmark::RegisterBenchmark("BM_BatchRoute", BM_BatchRoute);
  for (const GridPoint point : tier().grid) {
    route->Args({point.d, point.g});
    engine->Args({point.d, point.g});
    execute->Args({point.d, point.g});
    for (const int threads : tier().batch_threads) {
      batch->Args({point.d, point.g, threads});
    }
  }
}

}  // namespace
}  // namespace pops::bench

POPSNET_BENCH_MAIN(pops::bench::print_tables,
                   pops::bench::register_tier_benches)
