// Experiment E11 — the streaming traffic server (serve/) under
// sustained open-loop load.
//
// Every row is a long-running TrafficServer draining an arrival
// generator: demands accumulate into h-relation windows, each window is
// routed by the reused engine within the h * 2*ceil(d/g) budget (every
// phase on its own packets) and executed on the engine's strict
// simulator (route_h_relation aborts on any window that does not
// verify, so a routing regression kills the bench, and so does a row
// over its budget). The soak section drives tier().soak_windows windows
// (overridable with POPS_TRAFFIC_SOAK_WINDOWS) through the tier's first
// serve point and checks that the server's scratch footprint stayed
// flat after warm-up — the zero-allocation contract under system-shaped
// load, not just per-call.
#include <cstdlib>

#include "bench_common.h"
#include "pops/patterns.h"
#include "routing/bounds.h"
#include "serve/traffic_server.h"
#include "support/format.h"
#include "support/table.h"

namespace pops::bench {
namespace {

long long soak_windows() {
  // CI's sanitizer jobs shorten the soak to a few hundred windows via
  // this env var; the tier default exercises a tier-shaped run.
  if (const char* env = std::getenv("POPS_TRAFFIC_SOAK_WINDOWS")) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return tier().soak_windows;
}

ArrivalConfig arrival_config(ArrivalProcess process, std::uint64_t seed) {
  ArrivalConfig config;
  config.process = process;
  config.seed = seed;
  config.mean_gap_ticks = 1;
  config.mean_burst_length = 24;
  config.mean_off_gap_ticks = 64;
  return config;
}

ServerConfig server_config(int window_degree) {
  ServerConfig config;
  config.max_window_degree = window_degree;
  config.max_window_demands = tier().max_window_demands;
  return config;
}

void drive_windows(TrafficServer& server, ArrivalGenerator& generator,
                   long long windows) {
  while (server.stats().windows_routed < windows) {
    server.submit(generator.next());
  }
}

void add_row(Table& table, const Topology& topo, ArrivalProcess process,
             const TrafficServer& server) {
  const ServerStats& stats = server.stats();
  POPS_CHECK(stats.slots_executed <= stats.budget_slots,
             "traffic server executed more slots than its budget");
  const double ticks = static_cast<double>(server.now());
  table.add(topo.to_string(), to_string(process), stats.windows_routed,
            stats.demands_routed, stats.max_window_degree,
            stats.slots_executed, stats.budget_slots,
            as_int(static_cast<std::size_t>(
                stats.queueing_delay.percentile(0.50))),
            as_int(static_cast<std::size_t>(
                stats.queueing_delay.percentile(0.99))),
            ticks > 0 ? format_double(
                            static_cast<double>(stats.demands_routed) /
                                ticks,
                            2)
                      : "-");
}

void print_tables() {
  const int windows = tier().serve_table_windows;
  std::cout << "=== E11a: traffic server, " << windows
            << " windows per arrival process (verified) ===\n";
  Table table({"topology", "arrivals", "windows", "demands", "h_max",
               "slots", "budget", "delay_p50", "delay_p99",
               "demands/tick"});
  for (const ServePoint point : tier().serve_grid) {
    const Topology topo(point.d, point.g);
    for (const ArrivalProcess process : kAllArrivalProcesses) {
      TrafficServer server(topo, server_config(point.window_degree));
      ArrivalGenerator generator(topo, arrival_config(process, 11));
      drive_windows(server, generator, windows);
      server.flush();
      add_row(table, topo, process, server);
    }
  }
  table.print(std::cout);
  std::cout << "Expected shape: slots <= budget on every row (each phase\n"
               "takes min(M, 2*ceil(Delta/g)) slots on its own packets,\n"
               "against 2*ceil(d/g) in the budget; one slot per phase when\n"
               "d = 1), bursty rows show the largest p99 queueing delay.\n\n";

  const long long soak = soak_windows();
  const ServePoint point = tier().serve_grid.front();
  const Topology topo(point.d, point.g);
  std::cout << "=== E11b: soak — " << soak << " windows on "
            << topo.to_string() << ", uniform arrivals ===\n";
  TrafficServer server(topo, server_config(point.window_degree));
  ArrivalGenerator generator(topo, arrival_config(
                                       ArrivalProcess::kUniform, 7));
  const long long warmup = std::max<long long>(100, soak / 10);
  drive_windows(server, generator, warmup);
  const ScratchFootprint warm = server.scratch_footprint();
  drive_windows(server, generator, soak);
  server.flush();
  const ScratchFootprint done = server.scratch_footprint();
  POPS_CHECK(warm == done,
             "traffic soak grew server scratch after warm-up "
             "(steady-state allocation)");
  const ServerStats& stats = server.stats();
  POPS_CHECK(stats.slots_executed <= stats.budget_slots,
             "traffic soak executed more slots than its budget");
  Table soak_table({"windows", "demands", "slots", "budget", "delay_p50",
                    "delay_p99", "delay_mean", "footprint"});
  soak_table.add(stats.windows_routed, stats.demands_routed,
                 stats.slots_executed, stats.budget_slots,
                 as_int(static_cast<std::size_t>(
                     stats.queueing_delay.percentile(0.50))),
                 as_int(static_cast<std::size_t>(
                     stats.queueing_delay.percentile(0.99))),
                 format_double(stats.queueing_delay.mean(), 2),
                 str_cat(done.units, " (flat after warm-up)"));
  soak_table.print(std::cout);
  std::cout << "Expected shape: slots <= budget, and the footprint\n"
               "identical before and after the post-warm-up soak (the\n"
               "POPS_CHECKs above enforce both).\n\n";
}

void serve_benchmark(benchmark::State& state, ArrivalProcess process) {
  const Topology topo(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  TrafficServer server(topo,
                       server_config(static_cast<int>(state.range(2))));
  ArrivalGenerator generator(topo, arrival_config(process, 56));
  // Warm the arenas so the timed loop measures steady-state serving.
  drive_windows(server, generator, 2);
  for (auto _ : state) {
    server.submit(generator.next());
  }
  server.flush();
  state.SetItemsProcessed(state.iterations());
  const ServerStats& stats = server.stats();
  state.counters["windows"] =
      benchmark::Counter(static_cast<double>(stats.windows_routed));
  state.counters["delay_p50_ticks"] = benchmark::Counter(
      static_cast<double>(stats.queueing_delay.percentile(0.50)));
  state.counters["delay_p99_ticks"] = benchmark::Counter(
      static_cast<double>(stats.queueing_delay.percentile(0.99)));
  state.counters["slots_per_window"] =
      benchmark::Counter(stats.slots_per_window());
  state.counters["demands_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_ServeUniform(benchmark::State& state) {
  serve_benchmark(state, ArrivalProcess::kUniform);
}
void BM_ServeZipfHotGroup(benchmark::State& state) {
  serve_benchmark(state, ArrivalProcess::kZipfHotGroup);
}
void BM_ServeBurstyOnOff(benchmark::State& state) {
  serve_benchmark(state, ArrivalProcess::kBurstyOnOff);
}

void register_tier_benches() {
  auto* uniform =
      benchmark::RegisterBenchmark("BM_ServeUniform", BM_ServeUniform);
  auto* zipf = benchmark::RegisterBenchmark("BM_ServeZipfHotGroup",
                                            BM_ServeZipfHotGroup);
  auto* bursty = benchmark::RegisterBenchmark("BM_ServeBurstyOnOff",
                                              BM_ServeBurstyOnOff);
  for (const ServePoint point : tier().serve_grid) {
    uniform->Args({point.d, point.g, point.window_degree});
    zipf->Args({point.d, point.g, point.window_degree});
    bursty->Args({point.d, point.g, point.window_degree});
  }
}

}  // namespace
}  // namespace pops::bench

POPSNET_BENCH_MAIN(pops::bench::print_tables,
                   pops::bench::register_tier_benches)
