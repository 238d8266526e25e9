// Experiment E7 — baseline crossover: Theorem 2 vs. direct routing.
//
// Direct routing needs max-demand slots: ~d/g + O(sqrt) for random
// permutations (balls into bins) but exactly d for adversarial
// (group-block) traffic. Theorem 2 charges a flat 2*ceil(d/g). The table
// sweeps the tier's (d, g) grid and shows who wins where; the crossover
// is the point of the experiment:
//   * random traffic, d >> g: direct wins (max demand ~ d/g < 2*ceil(d/g));
//   * random traffic, d <= g: direct usually wins or ties at ~2 slots;
//   * adversarial traffic: direct loses by up to a factor g/2.
#include <numeric>

#include "bench_common.h"
#include "perm/families.h"
#include "routing/engine.h"
#include "support/format.h"
#include "support/prng.h"
#include "support/table.h"

namespace pops::bench {
namespace {

int direct_verified(RoutingEngine& engine, const Permutation& pi) {
  const FlatSchedule& plan = engine.route(pi, {RouteStrategy::kDirect});
  const VerificationResult vr =
      verify_schedule(engine.topology(), pi, plan);
  POPS_CHECK(vr.ok, "direct schedule failed verification: " + vr.failure);
  return plan.slot_count();
}

void print_tables() {
  Rng rng(7);
  std::cout << "=== E7: Theorem 2 vs. direct routing (slot counts) ===\n";
  Table table({"topology", "thm2", "direct random (avg of 5)",
               "direct reversal", "direct group-rot", "winner random",
               "winner adversarial"});
  for (const GridPoint point : tier().grid) {
    const Topology topo(point.d, point.g);
    const int n = topo.processor_count();
    const int thm2 = theorem2_slots(topo);
    RoutingEngine engine(topo);

    double direct_random = 0;
    for (int t = 0; t < 5; ++t) {
      direct_random +=
          direct_verified(engine, Permutation::random(n, rng));
    }
    direct_random /= 5;

    const int direct_reversal =
        direct_verified(engine, vector_reversal(n));
    const int direct_rot = direct_verified(
        engine, group_rotation(point.d, point.g, point.g > 1 ? 1 : 0));

    table.add(topo.to_string(), thm2, format_double(direct_random, 1),
              direct_reversal, direct_rot,
              direct_random < thm2 ? "direct"
                                   : (direct_random > thm2 ? "thm2" : "tie"),
              direct_reversal > thm2 ? "thm2" : "direct");
  }
  table.print(std::cout);
  std::cout << "Expected shape: direct wins on random traffic (max demand\n"
               "is close to d/g, half of Theorem 2's charge) and loses on\n"
               "group-block traffic, where it degrades to d slots while\n"
               "Theorem 2 stays flat — the worst-case guarantee is the\n"
               "paper's point.\n\n";

  std::cout << "=== E7c: portfolio router strategy choices ===\n";
  {
    Table portfolio_table({"topology", "traffic", "strategy", "slots",
                           "thm2", "max demand"});
    // Smallest, middle, and largest tier point: enough to show the
    // strategy flip without repeating the whole sweep.
    const std::vector<GridPoint>& grid = tier().grid;
    for (const GridPoint point :
         {grid.front(), grid[grid.size() / 2], grid.back()}) {
      const Topology topo(point.d, point.g);
      const int n = topo.processor_count();
      RoutingEngine engine(topo);
      struct Case {
        const char* name;
        Permutation pi;
      };
      const Case cases[] = {
          {"random", Permutation::random(n, rng)},
          {"reversal", vector_reversal(n)},
          {"group-rot",
           group_rotation(point.d, point.g, point.g > 1 ? 1 : 0)},
      };
      for (const auto& c : cases) {
        const FlatSchedule& plan =
            engine.route(c.pi, {RouteStrategy::kBest});
        const VerificationResult vr = verify_schedule(topo, c.pi, plan);
        POPS_CHECK(vr.ok, "portfolio schedule failed: " + vr.failure);
        portfolio_table.add(topo.to_string(), c.name,
                            to_string(engine.last_strategy()),
                            plan.slot_count(), theorem2_slots(topo),
                            engine.direct_max_demand());
      }
    }
    portfolio_table.print(std::cout);
    std::cout << "Expected shape: slots = min(max demand, thm2). Both "
                 "are known before\neither schedule exists; only the "
                 "winner is built and verified, direct\non ties. The "
                 "strategy flips from direct to theorem2 exactly on the\n"
                 "adversarial rows.\n\n";
  }

  std::cout << "=== E7b: one-slot routable fraction of random "
               "permutations ===\n";
  const int trials = tier().random_trials;
  Table frac({"topology", str_cat("routable/", trials)});
  // The one-slot class only exists at tiny d; the shapes stay fixed and
  // the tier scales how hard we sample them.
  for (const auto& [d, g] : {std::pair{2, 4}, {2, 8}, {3, 8}, {4, 8},
                             {2, 16}, {4, 16}}) {
    const Topology topo(d, g);
    RoutingEngine engine(topo);
    int count = 0;
    for (int t = 0; t < trials; ++t) {
      const Permutation pi =
          Permutation::random(topo.processor_count(), rng);
      engine.route_direct(pi);
      if (engine.direct_max_demand() <= 1) ++count;
    }
    frac.add(topo.to_string(), count);
  }
  frac.print(std::cout);
  std::cout << "Expected shape: the fraction collapses as d grows — the\n"
               "paper's \"only a very restricted number of permutations\"\n"
               "(Gravenstreter & Melhem's single-slot class).\n\n";
}

void BM_DirectRoute(benchmark::State& state) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  Rng rng(51);
  const Permutation pi = Permutation::random(topo.processor_count(), rng);
  const RouteOptions options{RouteStrategy::kDirect};
  // One-shot cost on purpose (fresh scratch per call, like the
  // historical free function) — the warm-engine number is
  // BM_EngineRoutePermutation's territory.
  for (auto _ : state) {
    benchmark::DoNotOptimize(route(topo, pi, options));
  }
  state.SetItemsProcessed(state.iterations());  // permutations routed
  state.counters["perms_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void register_tier_benches() {
  auto* direct =
      benchmark::RegisterBenchmark("BM_DirectRoute", BM_DirectRoute);
  for (const GridPoint point : tier().grid) {
    direct->Args({point.d, point.g});
  }
}

}  // namespace
}  // namespace pops::bench

POPSNET_BENCH_MAIN(pops::bench::print_tables,
                   pops::bench::register_tier_benches)
