// Experiment E8 — substrate engineering: throughput of the strict
// simulator itself (transmissions executed per second under full
// validation, and ns per transmission), plus the traffic-pattern
// scenario sweep: every generator in pops/patterns.h routed at the
// Theorem 2 bound and executed on the simulator. All sizes come from
// the active tier's (d, g) grid.
#include <algorithm>

#include "bench_common.h"
#include "perm/families.h"
#include "pops/network.h"
#include "pops/patterns.h"
#include "routing/engine.h"
#include "support/format.h"
#include "support/prng.h"
#include "support/table.h"
#include "support/timer.h"

namespace pops::bench {
namespace {

void print_throughput_table() {
  std::cout << "=== E8: simulator throughput (validated transmissions/s) "
               "===\n";
  Table table({"topology", "n", "slots/schedule", "transmissions/schedule",
               "Mtransmissions/s", "ns/transmission", "coupler util %"});
  Rng rng(8);
  for (const GridPoint point : tier().grid) {
    const Topology topo(point.d, point.g);
    const int n = topo.processor_count();
    const Permutation pi = Permutation::random(n, rng);
    RoutingEngine engine(topo);
    const FlatSchedule& plan = engine.route_permutation(pi);
    Network net(topo);

    // About 2^20 transmissions per row; only execute() is timed.
    const int reps =
        std::max(20, (1 << 20) / std::max(1, plan.transmission_count()));
    double nanos = 0;
    for (int rep = 0; rep < reps; ++rep) {
      net.load_permutation_traffic(pi);
      const Timer timer;
      const bool executed = net.execute(plan);
      nanos += timer.nanos();
      POPS_CHECK(executed, "benchmark schedule rejected: " + net.failure());
      POPS_CHECK(net.all_delivered(), "benchmark schedule broke");
    }
    const double transmissions = static_cast<double>(reps) *
                                 static_cast<double>(plan.transmission_count());
    table.add(topo.to_string(), n, plan.slot_count(),
              plan.transmission_count(),
              format_double(transmissions / nanos * 1e3, 2),
              format_double(nanos / transmissions, 1),
              format_double(
                  net.stats().average_coupler_utilization() * 100, 1));
  }
  table.print(std::cout);
  std::cout << "Expected shape: a slot of a d > g schedule moves g^2\n"
               "packets (every coupler busy), so transmissions/schedule is\n"
               "below n * slots there. ns/transmission stays roughly flat\n"
               "across shapes (one id lookup and two passes per\n"
               "transmission); the tiniest shapes pay the fixed per-slot\n"
               "and per-execute cost over few transmissions.\n\n";
}

void print_pattern_table() {
  std::cout << "=== E8b: traffic-pattern scenarios (engine-routed, "
               "executed, verified) ===\n";
  Table table({"topology", "pattern", "slots", "formula", "delivered"});
  for (const GridPoint point : tier().grid) {
    const Topology topo(point.d, point.g);
    RoutingEngine engine(topo);
    Network net(topo);
    for (const auto pattern : kAllTrafficPatterns) {
      const Permutation pi = make_pattern(topo, pattern, 8);
      const FlatSchedule& plan = engine.route_permutation(pi);
      net.reset();
      net.load_permutation_traffic(pi);
      POPS_CHECK(net.execute(plan),
                 "pattern schedule rejected: " + net.failure());
      POPS_CHECK(net.all_delivered(), "pattern schedule broke");
      table.add(topo.to_string(), to_string(pattern), plan.slot_count(),
                theorem2_slots(topo), "yes");
    }
  }
  table.print(std::cout);
  std::cout << "Expected shape: every pattern routes in exactly the "
               "formula slots\n(the construction is oblivious — the "
               "pattern never matters).\n\n";
}

void print_tables() {
  print_throughput_table();
  print_pattern_table();
}

// Executes a nested copy of the schedule, one SlotPlan per slot: the
// BM_ExecuteSchedule-vs-BM_ExecuteFlatSchedule pair is the measured
// cost of the nested layout, which is why FlatSchedule is the one
// schedule layout.
void BM_ExecuteSchedule(benchmark::State& state) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  Rng rng(52);
  const Permutation pi = Permutation::random(topo.processor_count(), rng);
  RoutingEngine engine(topo);
  const FlatSchedule& plan = engine.route_permutation(pi);
  std::vector<SlotPlan> slots(as_size(plan.slot_count()));
  for (int s = 0; s < plan.slot_count(); ++s) {
    slots[as_size(s)].transmissions.assign(plan.slot(s).begin(),
                                           plan.slot(s).end());
  }
  Network net(topo);
  for (auto _ : state) {
    net.load_permutation_traffic(pi);
    for (const SlotPlan& slot : slots) net.execute_slot(slot);
  }
  state.SetItemsProcessed(state.iterations() * topo.processor_count() *
                          static_cast<long long>(slots.size()));
}

void BM_ExecuteFlatSchedule(benchmark::State& state) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  Rng rng(52);
  const Permutation pi = Permutation::random(topo.processor_count(), rng);
  RoutingEngine engine(topo);
  const FlatSchedule& plan = engine.route_permutation(pi);
  Network net(topo);
  for (auto _ : state) {
    net.load_permutation_traffic(pi);
    net.execute(plan);
  }
  state.SetItemsProcessed(state.iterations() * topo.processor_count() *
                          plan.slot_count());
}

void BM_Broadcast(benchmark::State& state) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  const SlotPlan plan = one_to_all(topo, 0);
  Network net(topo);
  for (auto _ : state) {
    net.reset();
    net.load_packet(Packet{-1, 0, 0, 1, 0});
    net.execute_slot(plan);
  }
  state.SetItemsProcessed(state.iterations() * topo.processor_count());
}

void BM_LoadTraffic(benchmark::State& state) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  Rng rng(53);
  const Permutation pi = Permutation::random(topo.processor_count(), rng);
  Network net(topo);
  for (auto _ : state) {
    net.load_permutation_traffic(pi);
  }
  state.SetItemsProcessed(state.iterations() * topo.processor_count());
}

// The same permutation as a Transmission list, through the list loader
// every verification in RoutingEngine uses.
void BM_LoadPackets(benchmark::State& state) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  const int n = topo.processor_count();
  Rng rng(53);
  const Permutation pi = Permutation::random(n, rng);
  std::vector<Transmission> packets(as_size(n));
  for (int source = 0; source < n; ++source) {
    packets[as_size(source)] = Transmission{source, pi(source), source};
  }
  Network net(topo);
  for (auto _ : state) {
    net.load_packets(packets);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void register_tier_benches() {
  auto* nested = benchmark::RegisterBenchmark("BM_ExecuteSchedule",
                                              BM_ExecuteSchedule);
  auto* flat = benchmark::RegisterBenchmark("BM_ExecuteFlatSchedule",
                                            BM_ExecuteFlatSchedule);
  auto* broadcast =
      benchmark::RegisterBenchmark("BM_Broadcast", BM_Broadcast);
  for (const GridPoint point : tier().grid) {
    nested->Args({point.d, point.g});
    flat->Args({point.d, point.g});
    broadcast->Args({point.d, point.g});
  }
  // Traffic loading is pure memory writes; one point (the tier's
  // largest) captures it, for each of the two loaders.
  const GridPoint largest = tier().grid.back();
  benchmark::RegisterBenchmark("BM_LoadTraffic", BM_LoadTraffic)
      ->Args({largest.d, largest.g});
  benchmark::RegisterBenchmark("BM_LoadPackets", BM_LoadPackets)
      ->Args({largest.d, largest.g});
}

}  // namespace
}  // namespace pops::bench

POPSNET_BENCH_MAIN(pops::bench::print_tables,
                   pops::bench::register_tier_benches)
