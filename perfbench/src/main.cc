// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Workloads (all inputs are generated from the seed before any clock
// starts; see README.md next to this directory for why each exists):
//
//   route-square      POPS(32, 32), 256 random permutations, Theorem 2
//   route-wide-mixed  POPS(8, 64), 256 random + structured, portfolio
//   serve-zipf        POPS(16, 8), zipf-hot-group demand trace served
//                     with h <= 8 and <= 256 demands per window
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate
// run that records spans around the calls into each layer and reports
// the per-layer metrics (written to --trace-dir as Chrome trace JSON).
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "route_stage.h"
#include "serve_stage.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int kPoolSize = 256;
constexpr int kZipfTraceLength = 1 << 19;
// Spans kept per trace file; totals always cover every span.
constexpr std::size_t kSpansKept = 1 << 14;

const char* const kEndToEnd[] = {
    "perms_per_s",     "route_p50_us",    "route_p99_us",
    "batch_perms_per_s", "slots_per_perm", "slots_over_bound",
    "demands_per_s",   "window_p50_us",   "window_p99_us",
    "delay_p50_ticks", "delay_p99_ticks", "setup_s",
    "scratch_units",
};

const char* const kPerLayer[] = {
    "graph.color_h_us",          "graph.color_hq_us",
    "graph.spread_us",           "graph.color_traffic_us",
    "graph.edges_per_s",         "routing.self_us",
    "routing.direct_us",         "routing.best_direct_win_frac",
    "routing.batch_efficiency",  "routing.phase_route_us",
    "pops.execute_us",           "pops.transmissions_per_s",
    "serve.admit_ns",            "serve.demands_per_window",
    "serve.degree_close_frac",   "serve.budget_ratio",
    "serve.useful_packet_frac",  "trace.overhead_frac",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "route-square|route-wide-mixed|serve-zipf --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               problem);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value after a flag");
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      usage("unknown flag");
    }
  }
  if (args.seconds <= 0) usage("--seconds must be positive");
  return args;
}

/// Per-layer metrics that come straight from span totals.
void span_metrics(const Tracer& tracer, SpanName route, Report& report) {
  const auto total = [&](SpanName name) {
    return static_cast<double>(tracer.totals(name).total_ns);
  };
  report.set("graph.color_h_us", tracer.mean_us(SpanName::kColorH), "us");
  report.set("graph.color_hq_us", tracer.mean_us(SpanName::kColorHq), "us");
  report.set("graph.spread_us", tracer.mean_us(SpanName::kSpread), "us");
  report.set("routing.direct_us", tracer.mean_us(SpanName::kDirect), "us");
  report.set("routing.phase_route_us",
             tracer.mean_us(SpanName::kPhaseRoute), "us");
  // Estimate: the engine's own stages cannot be seen from outside, so
  // its self time is the route span minus the replayed graph spans of
  // the same inputs.
  const double graph_ns = total(SpanName::kColorH) +
                          total(SpanName::kColorHq) +
                          total(SpanName::kSpread);
  report.set("routing.self_us",
             ratio(total(route) - graph_ns,
                   static_cast<double>(tracer.totals(route).count)) /
                 1e3,
             "us");
  report.set("pops.execute_us", tracer.mean_us(SpanName::kExecute), "us");
}

/// Sets the serve.* metrics (and the traffic-coloring metric) of a
/// serve stage that ran traced into `tracer`.
void serve_metrics(const ServeStage& serve, const ServeTiming& untraced,
                   const Tracer& tracer, Report& report) {
  report.set("serve.admit_ns", ratio(untraced.admit_ns_sum,
                                     static_cast<double>(untraced.admits)),
             "ns");
  report.set("serve.demands_per_window", serve.demands_per_window(),
             "demands");
  report.set("serve.degree_close_frac", serve.degree_close_frac(), "ratio");
  report.set("serve.budget_ratio", serve.budget_ratio(), "ratio");
  report.set("serve.useful_packet_frac", serve.useful_packet_frac(),
             "ratio");
  report.set("graph.color_traffic_us",
             tracer.mean_us(SpanName::kColorTraffic), "us");
}

/// Edges colored per second of replayed coloring, over all tracers.
void edges_metric(long long edges, const std::vector<const Tracer*>& tracers,
                  Report& report) {
  double ns = 0;
  for (const Tracer* tracer : tracers) {
    for (const SpanName name : {SpanName::kColorH, SpanName::kColorHq,
                                SpanName::kColorTraffic}) {
      ns += static_cast<double>(tracer->totals(name).total_ns);
    }
  }
  report.set("graph.edges_per_s", ratio(static_cast<double>(edges) * 1e9, ns),
             "1/s");
}

// Latency percentiles are taken per run of this many samples, then the
// median across runs (chunked_quantile); for the p99 the lower quartile
// across runs. A host burst (a neighbour on the same core, the CPU taken
// away) lasts many calls and lifts the tail of every run it touches; on
// a shared host it touches a fifth to a half of them, so a median p99
// would follow the host's burst rate. The lower quartile is the tail of
// the code in the quieter stretches of the run.
constexpr std::size_t kLatencyChunk = 256;
constexpr double kTailOver = 0.25;
// Engine calls per throughput sample (grouped_rate).
constexpr std::size_t kRateGroup = 16;

double engine_per_s(const StageTiming& engine) {
  return grouped_rate(engine.call_us, 1, kRateGroup);
}

double batch_per_s(const StageTiming& batch) {
  return grouped_rate(batch.call_us, RouteStage::kBatchSize, 1);
}

void write_trace(const Args& args, const Tracer& tracer, const char* part) {
  if (args.trace_dir.empty()) return;
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-" + part +
                           ".trace.json";
  if (!tracer.write(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

void print_layer_self(const Tracer& tracer, const char* label) {
  std::printf("  self time by layer (%s):", label);
  for (const char* layer : {"graph", "routing", "pops", "serve"}) {
    std::printf(" %s %.3f s", layer, tracer.layer_self_s(layer));
  }
  std::printf("\n");
}

// --- the untraced run, shared by every workload ------------------------
//
// A run is a sequence of rounds until the deadline, so every figure
// samples the whole run's conditions. A round serves `serve_chunks`
// chunks of the workload's demand trace and makes one engine pass over
// the pool, pinned to the next CPU in turn (CpuRotation); then one batch
// pass and one set-up sample run unpinned, so the BatchRouter's workers
// are placed by the scheduler.

void measure(const Args& args, RouteStage& route, ServeStage& serve,
             int serve_chunks, Report& report) {
  const std::size_t warm_units = route.scratch_units();
  ServeTiming timing;
  StageTiming engine;
  StageTiming batch;
  std::vector<double> setup_s;
  CpuRotation cpus;
  const Deadline deadline(args.seconds);
  do {
    cpus.pin_next();
    // The server's caches are cold on a new CPU and after the other
    // stages ran: one untimed chunk warms them.
    ServeTiming warm_up;
    serve.run_chunk(warm_up, report, nullptr);
    for (int k = 0; k < serve_chunks; ++k) {
      serve.run_chunk(timing, report, nullptr);
    }
    route.engine_pass(engine, report);
    cpus.unpin();
    route.batch_pass(batch, report);
    setup_s.push_back(serve.setup_sample() + route.setup_sample());
  } while (!deadline.expired());
  serve.finish(report);
  report.check(route.scratch_units() == warm_units,
               "engine or BatchRouter scratch grew after warm-up");

  report.set("perms_per_s", engine_per_s(engine), "1/s");
  report.set("route_p50_us",
             chunked_quantile(engine.call_us, 0.50, kLatencyChunk), "us");
  report.set("route_p99_us",
             chunked_quantile(engine.call_us, 0.99, kLatencyChunk, kTailOver),
             "us");
  report.set("batch_perms_per_s", batch_per_s(batch), "1/s");
  report.set("demands_per_s", median(timing.pass_per_s), "1/s");
  report.set("window_p50_us",
             chunked_quantile(timing.window_us, 0.50, kLatencyChunk), "us");
  report.set("window_p99_us",
             chunked_quantile(timing.window_us, 0.99, kLatencyChunk, kTailOver),
             "us");
  report.set("setup_s", median(setup_s), "s");
  report.set("scratch_units",
             static_cast<double>(serve.scratch_units() + route.scratch_units()),
             "units");
  std::printf("  samples: %lld demands, %zu windows, %zu route calls, "
              "%zu batch calls of %d, %zu set-ups\n",
              timing.demands, timing.window_us.size(), engine.call_us.size(),
              batch.call_us.size(), RouteStage::kBatchSize, setup_s.size());
}

// --- route-square / route-wide-mixed -----------------------------------
//
// The serve side of a route workload: every pool permutation is one
// window of n demands (a 1-relation).

// Serve chunks per round: 192 windows on route-square, 384 on
// route-wide-mixed, about 40% of a round's time. The window tail is
// host noise as much as code, so window_p99_us needs thousands of
// windows in a run to repeat.
constexpr int kRouteServeChunks = 96;

void route_workload(const Args& args, const pops::Topology& topo,
                    pops::RouteStrategy strategy,
                    std::vector<pops::Permutation> pool, Report& report) {
  pops::ServerConfig config;
  config.max_window_degree = 1;
  config.max_window_demands = topo.processor_count();
  ServeStage serve(topo, config, permutation_trace(topo, pool));
  serve.setup();
  RouteStage stage(topo, strategy, std::move(pool));
  stage.setup();
  stage.verify(report);

  if (!args.trace) {
    measure(args, stage, serve, kRouteServeChunks, report);
    return;
  }

  const std::size_t warm_units = stage.scratch_units();
  StageTiming untraced;
  StageTiming traced;
  StageTiming batch;
  ServeTiming serve_timing;
  Tracer tracer(kSpansKept);
  Tracer serve_tracer(kSpansKept);
  CpuRotation cpus;
  const Deadline deadline(args.seconds);
  do {
    cpus.pin_next();
    stage.engine_pass(untraced, report);
    stage.trace_pass(traced, tracer, report);
    serve.run_chunk(serve_timing, report, &serve_tracer);
    cpus.unpin();
    stage.batch_pass(batch, report);
  } while (!deadline.expired());
  serve.finish(report);
  report.check(stage.scratch_units() == warm_units,
               "engine or BatchRouter scratch grew after warm-up");

  span_metrics(tracer, SpanName::kRoute, report);
  serve_metrics(serve, serve_timing, serve_tracer, report);
  edges_metric(stage.edges_colored() + serve.edges_colored(),
               {&tracer, &serve_tracer}, report);
  report.set("pops.transmissions_per_s",
             ratio(static_cast<double>(stage.transmissions_executed()) * 1e9,
                   static_cast<double>(
                       tracer.totals(SpanName::kExecute).total_ns)),
             "1/s");
  report.set("routing.best_direct_win_frac", stage.direct_win_frac(),
             "ratio");
  const double untraced_pps = engine_per_s(untraced);
  report.set("routing.batch_efficiency",
             ratio(batch_per_s(batch),
                   RouteStage::kBatchWorkers * untraced_pps),
             "ratio");
  report.set("trace.overhead_frac",
             ratio(untraced_pps - engine_per_s(traced), untraced_pps),
             "ratio");
  print_layer_self(tracer, "route");
  print_layer_self(serve_tracer, "serve");
  write_trace(args, tracer, "route");
  write_trace(args, serve_tracer, "serve");
}

// --- serve-zipf ----------------------------------------------------------
//
// The route side of the serve workload: the padded phase permutations
// its windows produce.

// Serve chunks per round: about half of a round's time.
constexpr int kServeChunksPerRound = 3;

void serve_workload(const Args& args, Report& report) {
  const pops::Topology topo(16, 8);
  pops::ServerConfig config;
  config.max_window_degree = 8;
  config.max_window_demands = 256;
  ServeStage serve(topo, config,
                   zipf_trace(topo, args.seed, kZipfTraceLength));
  serve.setup();
  RouteStage phases(topo, pops::RouteStrategy::kTheorem2,
                    serve.capture_phases(kPoolSize));
  phases.setup();
  phases.verify(report);

  if (!args.trace) {
    measure(args, phases, serve, kServeChunksPerRound, report);
    report.set("delay_p50_ticks", serve.delay_quantile(0.50), "ticks");
    report.set("delay_p99_ticks", serve.delay_quantile(0.99), "ticks");
    return;
  }

  const std::size_t warm_units = phases.scratch_units();
  ServeTiming untraced;
  ServeTiming traced;
  StageTiming engine;
  StageTiming batch;
  Tracer tracer(kSpansKept);
  CpuRotation cpus;
  const Deadline deadline(args.seconds);
  do {
    cpus.pin_next();
    serve.run_chunk(untraced, report, nullptr);
    serve.run_chunk(traced, report, &tracer);
    phases.engine_pass(engine, report);
    cpus.unpin();
    phases.batch_pass(batch, report);
  } while (!deadline.expired());
  serve.finish(report);
  report.check(phases.scratch_units() == warm_units,
               "engine or BatchRouter scratch grew after warm-up");

  span_metrics(tracer, SpanName::kPhaseRoute, report);
  serve_metrics(serve, untraced, tracer, report);
  edges_metric(serve.edges_colored(), {&tracer}, report);
  report.set("pops.transmissions_per_s",
             ratio(static_cast<double>(serve.transmissions_executed()) * 1e9,
                   static_cast<double>(
                       tracer.totals(SpanName::kExecute).total_ns)),
             "1/s");
  report.set("routing.best_direct_win_frac", phases.direct_win_frac(),
             "ratio");
  report.set("routing.batch_efficiency",
             ratio(batch_per_s(batch),
                   RouteStage::kBatchWorkers * engine_per_s(engine)),
             "ratio");
  const double untraced_dps = median(untraced.pass_per_s);
  report.set("trace.overhead_frac",
             ratio(untraced_dps - median(traced.pass_per_s), untraced_dps),
             "ratio");
  print_layer_self(tracer, "serve");
  write_trace(args, tracer, "serve");
}

int run(const Args& args) {
  Report report;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (args.workload == "route-square") {
    const pops::Topology topo(32, 32);
    route_workload(args, topo, pops::RouteStrategy::kTheorem2,
                   random_pool(topo, args.seed, kPoolSize), report);
  } else if (args.workload == "route-wide-mixed") {
    const pops::Topology topo(8, 64);
    route_workload(args, topo, pops::RouteStrategy::kBest,
                   mixed_pool(topo, args.seed, kPoolSize), report);
  } else if (args.workload == "serve-zipf") {
    serve_workload(args, report);
  } else {
    usage("unknown workload");
  }

  std::vector<Metric> selected;
  const auto select = [&](const char* const* names, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      bool found = false;
      for (const Metric& metric : report.metrics()) {
        if (metric.name != names[i]) continue;
        found = true;
        report.check(std::isfinite(metric.value),
                     "metric " + metric.name + " is not a finite number");
        selected.push_back(metric);
      }
      report.check(found, std::string("metric ") + names[i] + " missing");
    }
  };
  if (args.trace) {
    select(kPerLayer, sizeof(kPerLayer) / sizeof(kPerLayer[0]));
  } else {
    select(kEndToEnd, sizeof(kEndToEnd) / sizeof(kEndToEnd[0]));
  }

  for (const Metric& metric : selected) {
    std::printf("  %-30s %18.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("  %-30s %18.6f ratio (%lld failed of %lld checked)\n",
              "failed_frac",
              ratio(static_cast<double>(report.failed()),
                    static_cast<double>(report.attempted())),
              report.failed(), report.attempted());
  for (const std::string& failure : report.failures()) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.failed() == 0 ? "true" : "false",
              std::max(1LL, report.attempted()), report.failed());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const double value =
        std::isfinite(selected[i].value) ? selected[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", selected[i].name.c_str(), value,
                selected[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
