// The routing side of the benchmark: seeded permutation pools, one warm
// RoutingEngine and a two-worker BatchRouter over a pool, the output
// checks, and the traced replay of the Theorem 2 graph stages.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/bipartite_multigraph.h"
#include "graph/edge_coloring.h"
#include "perm/permutation.h"
#include "pops/flat_plan.h"
#include "pops/network.h"
#include "routing/batch_router.h"
#include "routing/engine.h"
#include "routing/router.h"
#include "harness.h"
#include "trace.h"

namespace perfbench {

/// `count` distinct seeded uniform random permutations of topo's
/// processors.
std::vector<pops::Permutation> random_pool(const pops::Topology& topo,
                                           std::uint64_t seed, int count);

/// `count` distinct permutations alternating seeded random ones with
/// structured ones (group rotation, vector reversal, transpose, perfect
/// shuffle, group reversal, group block). Each structured permutation is
/// followed by a seeded relabelling inside every destination group,
/// which keeps its group-level shape (the multigraph H) but makes the
/// processor-level permutation distinct.
std::vector<pops::Permutation> mixed_pool(const pops::Topology& topo,
                                          std::uint64_t seed, int count);

/// True when the two schedules hold the same slots and transmissions.
bool same_schedule(const pops::FlatSchedule& a, const pops::FlatSchedule& b);

/// Replays the graph stages of the Theorem 2 construction (color H; per
/// batch color H_q, then spread it onto g classes) through the public
/// BipartiteMultigraph/EdgeColorer API, inside graph.* spans. It checks
/// that it does the same work as the engine: H gets exactly d colors and
/// every spread class holds exactly Delta_q edges.
class Theorem2Replay {
 public:
  Theorem2Replay(const pops::Topology& topo, pops::ColoringAlgorithm coloring);

  void run(pops::Span<const int> images, Tracer& tracer, Report& report);
  /// Edges handed to color() so far.
  long long edges_colored() const { return edges_colored_; }

 private:
  pops::Topology topo_;
  pops::ColoringAlgorithm coloring_alg_;
  pops::BipartiteMultigraph h_;
  pops::BipartiteMultigraph h_q_;
  pops::EdgeColorer colorer_;
  pops::EdgeColoring coloring_;
  pops::EdgeColoring fair_;
  std::vector<int> class_size_;
  long long edges_colored_ = 0;
};

/// Per-call latencies of one stage, accumulated over passes.
struct StageTiming {
  std::vector<double> call_us;
};

/// Routes one pool of permutations through a warm RoutingEngine and a
/// two-worker BatchRouter with one strategy, and checks every output.
class RouteStage {
 public:
  static constexpr int kBatchWorkers = 2;
  /// Permutations per route_batch call.
  static constexpr int kBatchSize = 16;

  RouteStage(const pops::Topology& topo, pops::RouteStrategy strategy,
             std::vector<pops::Permutation> pool);
  ~RouteStage();

  /// Builds the engine (plus one warm-up route) and the BatchRouter
  /// (which warms its own engines) that every later pass uses.
  void setup();
  /// Seconds to build and warm a throw-away engine and BatchRouter the
  /// same way: one set-up sample.
  double setup_sample();

  /// Outside any clock: routes every pool permutation once, keeps the
  /// schedule as the reference, executes it on a benchmark-owned
  /// Network (every packet must arrive) and checks its length against
  /// the paper's bounds. Fills slots_per_perm, slots_over_bound,
  /// delay_p50_ticks and delay_p99_ticks (the slot in which each packet
  /// reaches its destination).
  void verify(Report& report);

  /// One pass over the pool through the engine; every output must
  /// equal its reference.
  void engine_pass(StageTiming& timing, Report& report);
  /// One pass over the pool through route_batch in kBatchSize chunks;
  /// every result must equal the single engine's.
  void batch_pass(StageTiming& timing, Report& report);
  /// One traced pass: each input is one request with a routing.route
  /// span, the replayed graph spans, a routing.direct and a
  /// routing.phase_route span on a separate replay engine, and a
  /// pops.execute span of its schedule on the benchmark's Network.
  void trace_pass(StageTiming& timing, Tracer& tracer, Report& report);

  long long edges_colored() const { return replay_->edges_colored(); }
  long long transmissions_executed() const { return executed_; }
  /// Share of the portfolio's direct candidates that won (kBest only).
  double direct_win_frac() const;

  /// Engine plus BatchRouter footprint.
  std::size_t scratch_units() const;

 private:
  bool delivers(const pops::FlatSchedule& schedule,
                const pops::Permutation& pi);

  pops::Topology topo_;
  pops::RouteOptions options_;
  std::vector<pops::Permutation> pool_;
  std::vector<pops::FlatSchedule> reference_;
  std::vector<pops::FlatSchedule> results_;
  std::unique_ptr<pops::RoutingEngine> engine_;
  std::unique_ptr<pops::BatchRouter> router_;
  // Traced run only: direct and phase routes go to their own engine so
  // the measured engine's allocation contract is checked untouched.
  std::unique_ptr<pops::RoutingEngine> replay_engine_;
  std::unique_ptr<Theorem2Replay> replay_;
  pops::Network net_;
  long long direct_wins_ = 0;
  long long executed_ = 0;
};

}  // namespace perfbench
