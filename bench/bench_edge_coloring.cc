// Experiment E4 — ablation of the 1-factorization bottleneck itself.
//
// Times the two edge-coloring backends on random Delta-regular
// bipartite multigraphs over the tier's (n, Delta) sweep, reporting
// ns/edge. This isolates the Remark 1 cost from the rest of the routing
// pipeline. Each tier's sweep holds one odd Delta, which times
// euler-split's matching peel.
#include "bench_common.h"
#include "graph/edge_coloring.h"
#include "graph/random.h"
#include "graph/validation.h"
#include "support/format.h"
#include "support/prng.h"
#include "support/table.h"
#include "support/timer.h"

namespace pops::bench {
namespace {

BipartiteMultigraph random_regular(int n, int degree, Rng& rng) {
  return random_regular_multigraph(n, degree, rng);
}

double ns_per_edge(const BipartiteMultigraph& g,
                   ColoringAlgorithm algorithm) {
  // Warm reusable colorer: rep 0 sizes the flat scratch, later reps
  // measure the allocation-free steady state the engine actually runs.
  EdgeColorer colorer;
  EdgeColoring coloring;
  double best = 1e99;
  for (int rep = 0; rep < 4; ++rep) {
    Timer timer;
    colorer.color(g, algorithm, coloring);
    if (rep > 0) best = std::min(best, timer.nanos());
    POPS_CHECK(is_valid_edge_coloring(g, coloring),
               "invalid coloring in benchmark");
  }
  return best / static_cast<double>(g.edge_count());
}

void print_tables() {
  Rng rng(4);
  std::cout << "=== E4: edge coloring, ns/edge on Delta-regular graphs ===\n";
  Table table({"n", "Delta", "edges", "alternating-path", "euler-split"});
  for (const ColoringPoint point : tier().coloring_grid) {
    const BipartiteMultigraph g =
        random_regular(point.n, point.degree, rng);
    std::vector<std::string> cells{std::to_string(point.n),
                                   std::to_string(point.degree),
                                   std::to_string(g.edge_count())};
    for (const auto algorithm : kAllColoringAlgorithms) {
      cells.push_back(format_double(ns_per_edge(g, algorithm), 0));
    }
    table.add_row(std::move(cells));
  }
  table.print(std::cout);
  std::cout << "Expected shape: per-edge cost of euler-split grows ~log "
               "Delta, plus one\nrandom-walk matching peel per odd level; "
               "alternating-path grows with n\n(path lengths) but has the "
               "smallest constants on small instances.\n\n";
}

void BM_EdgeColoring(benchmark::State& state) {
  Rng rng(45);
  const BipartiteMultigraph g = random_regular(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(1)),
      rng);
  const auto algorithm = static_cast<ColoringAlgorithm>(state.range(2));
  // Warm reusable colorer, as held by a RoutingEngine: the loop times
  // the zero-steady-state-allocation path of each backend.
  EdgeColorer colorer;
  EdgeColoring coloring;
  colorer.color(g, algorithm, coloring);
  for (auto _ : state) {
    colorer.color(g, algorithm, coloring);
    benchmark::DoNotOptimize(coloring.color.data());
  }
  state.SetItemsProcessed(state.iterations() * g.edge_count());
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * g.edge_count()),
      benchmark::Counter::kIsRate);
  state.SetLabel(to_string(algorithm));
}

void register_tier_benches() {
  auto* coloring =
      benchmark::RegisterBenchmark("BM_EdgeColoring", BM_EdgeColoring);
  for (const ColoringPoint point : tier().coloring_grid) {
    for (const auto algorithm : kAllColoringAlgorithms) {
      coloring->Args(
          {point.n, point.degree, static_cast<int>(algorithm)});
    }
  }
}

}  // namespace
}  // namespace pops::bench

POPSNET_BENCH_MAIN(pops::bench::print_tables,
                   pops::bench::register_tier_benches)
