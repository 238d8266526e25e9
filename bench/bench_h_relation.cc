// Experiment E10 — h-relation routing (extension).
//
// The compositional consequence of Theorem 2: an h-relation decomposes by
// König edge coloring into h partial permutations (the decomposition uses
// the same coloring substrate as Theorem 1). Each phase is routed on its
// own packets in min(M, 2 * ceil(Delta / g)) slots: M is the most packets
// of the phase on one coupler (the direct schedule), Delta the most one
// group sends or receives (Theorem 2 on the phase). The table recomputes
// that exact total from every phase's requests, checks the plan against
// it and against the h * 2*ceil(d/g) budget, and verifies delivery across
// the tier's (d, g) grid and h values.
#include <algorithm>

#include "bench_common.h"
#include "routing/h_relation.h"
#include "support/prng.h"
#include "support/table.h"

namespace pops::bench {
namespace {

std::vector<Request> random_relation(const Topology& topo, int h, Rng& rng) {
  std::vector<Request> requests;
  for (int k = 0; k < h; ++k) {
    const Permutation pi = Permutation::random(topo.processor_count(), rng);
    for (int i = 0; i < pi.size(); ++i) {
      requests.push_back(Request{i, pi(i)});
    }
  }
  return requests;
}

// The exact slot count of one phase, from its requests alone:
// min(M, 2 * ceil(Delta / g)).
int exact_phase_slots(const Topology& topo,
                      const std::vector<Request>& requests,
                      const std::vector<int>& phase) {
  const int g = topo.g();
  std::vector<int> group_load(as_size(2 * g), 0);  // sends, then receives
  std::vector<int> coupler_load(as_size(topo.coupler_count()), 0);
  int delta = 0;
  int max_demand = 0;
  for (const int e : phase) {
    const Request& request = requests[as_size(e)];
    const int from = topo.group_of(request.source);
    const int to = topo.group_of(request.destination);
    delta = std::max({delta, ++group_load[as_size(from)],
                      ++group_load[as_size(g + to)]});
    max_demand = std::max(
        max_demand, ++coupler_load[as_size(topo.coupler(to, from))]);
  }
  return std::min(max_demand, 2 * ((delta + g - 1) / g));
}

void print_tables() {
  std::cout << "=== E10: h-relation routing (slots, verified) ===\n";
  Rng rng(10);
  Table table({"topology", "h", "packets", "phases", "slots", "exact",
               "budget", "verified"});
  for (const GridPoint point : tier().grid) {
    const Topology topo(point.d, point.g);
    for (const int h : tier().h_values) {
      const auto requests = random_relation(topo, h, rng);
      const HRelationPlan plan = route_h_relation(topo, requests);
      const std::string failure = verify_h_relation(topo, requests, plan);
      POPS_CHECK(failure.empty(), "h-relation failed: " + failure);
      int exact = 0;
      for (const HRelationPhase& phase : plan.phases) {
        exact += exact_phase_slots(topo, requests, phase.requests);
      }
      POPS_CHECK(plan.total_slots() == exact,
                 "h-relation plan is not its phases' exact length");
      const int budget = plan.h * theorem2_slots(topo);
      POPS_CHECK(plan.total_slots() <= budget,
                 "h-relation plan exceeds its budget");
      table.add(topo.to_string(), h, requests.size(),
                as_int(plan.phases.size()), plan.total_slots(), exact,
                budget, "yes");
    }
  }
  table.print(std::cout);
  std::cout << "Expected shape: slots == exact <= budget == h *\n"
               "theorem2_slots on every row. Each phase of a random union\n"
               "is a full permutation, so slots < budget exactly where some\n"
               "phase's direct schedule beats 2*ceil(d/g).\n\n";
}

void BM_RouteHRelation(benchmark::State& state) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  const int h = static_cast<int>(state.range(2));
  Rng rng(56);
  const auto requests = random_relation(topo, h, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(route_h_relation(topo, requests));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(requests.size()));
  state.counters["demands_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(requests.size()),
      benchmark::Counter::kIsRate);
}

void register_tier_benches() {
  auto* route = benchmark::RegisterBenchmark("BM_RouteHRelation",
                                             BM_RouteHRelation);
  // The full grid at the middle h, plus the h sweep on the middle
  // topology: h and (d, g) scale independently, so the cross product
  // would only repeat what the two slices already show.
  const std::vector<GridPoint>& grid = tier().grid;
  const std::vector<int>& h_values = tier().h_values;
  const int mid_h = h_values[h_values.size() / 2];
  for (const GridPoint point : grid) {
    route->Args({point.d, point.g, mid_h});
  }
  const GridPoint mid = grid[grid.size() / 2];
  for (const int h : h_values) {
    if (h != mid_h) route->Args({mid.d, mid.g, h});
  }
}

}  // namespace
}  // namespace pops::bench

POPSNET_BENCH_MAIN(pops::bench::print_tables,
                   pops::bench::register_tier_benches)
