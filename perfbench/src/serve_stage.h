// The serving side of the benchmark: one client replaying a fixed,
// seeded demand trace into a TrafficServer back to back, the window and
// queueing-delay bookkeeping observed through the server's public
// accessors, the output checks, and the traced replay of each window.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/bipartite_multigraph.h"
#include "graph/edge_coloring.h"
#include "perm/permutation.h"
#include "pops/flat_plan.h"
#include "pops/network.h"
#include "pops/patterns.h"
#include "routing/engine.h"
#include "serve/traffic_server.h"
#include "harness.h"
#include "route_stage.h"
#include "trace.h"

namespace perfbench {

/// `count` demands of a seeded zipf-hot-group arrival stream.
std::vector<pops::Demand> zipf_trace(const pops::Topology& topo,
                                     std::uint64_t seed, int count);

/// Every permutation of `pool` as n demands, permutation k arriving at
/// tick k * theorem2_slots: a 1-relation per permutation.
std::vector<pops::Demand> permutation_trace(
    const pops::Topology& topo, const std::vector<pops::Permutation>& pool);

struct ServeTiming {
  std::vector<double> window_us;    // submits that closed a window
  std::vector<double> pass_per_s;   // demands/s per chunk of submits
  double admit_ns_sum = 0;          // submits that kept the window open
  long long admits = 0;
  long long demands = 0;
};

class ServeStage {
 public:
  /// Submits per run_chunk call (one throughput sample).
  static constexpr int kChunk = 2048;

  /// The trace is replayed cyclically; each lap shifts its arrival
  /// ticks past the previous lap, so ticks never decrease.
  ServeStage(const pops::Topology& topo, const pops::ServerConfig& config,
             std::vector<pops::Demand> trace);
  ~ServeStage();

  /// Constructs the server (which primes itself) that every later
  /// chunk submits to.
  void setup();
  /// Seconds to construct a throw-away server: one set-up sample.
  double setup_sample() const;

  /// Outside any clock: serves the head of the trace on a separate
  /// server and returns the padded permutation of every phase of its
  /// windows, padded by the server's rule (idle sources onto unused
  /// destinations, in order), until `count` are collected.
  std::vector<pops::Permutation> capture_phases(int count);

  /// Submits the next kChunk demands of the trace back to back. With a
  /// tracer, every submit is a serve.admit or serve.window span and
  /// every closed window is replayed layer by layer (traffic coloring,
  /// each phase's route and graph stages, direct route, execution).
  void run_chunk(ServeTiming& timing, Report& report, Tracer* tracer);

  /// Flushes the last window and runs the end-of-run checks.
  void finish(Report& report);
  /// Exact queueing-delay quantile, in ticks, over every routed demand,
  /// by the same linear interpolation as quantile().
  double delay_quantile(double q) const;

  std::size_t scratch_units() const;
  double demands_per_window() const;
  double degree_close_frac() const;
  double budget_ratio() const;
  double useful_packet_frac() const;
  long long edges_colored() const;
  long long transmissions_executed() const { return executed_; }

 private:
  pops::Demand demand_at(long long index) const;
  void window_closed(std::uint64_t clock, bool flushed, Report& report,
                     Tracer* tracer);
  void verify_window(Report& report);
  void replay_window(Report& report, Tracer& tracer);
  void record_delay(std::uint64_t delay);
  /// The delay of rank max(1, round(q * count)), the rank the server's
  /// histogram reports the bucket of.
  std::uint64_t delay_at_rank(double q) const;

  pops::Topology topo_;
  pops::ServerConfig config_;
  std::vector<pops::Demand> trace_;
  std::uint64_t lap_ticks_;
  std::unique_ptr<pops::TrafficServer> server_;
  std::size_t warm_units_ = 0;

  long long submitted_ = 0;
  long long routed_ = 0;
  std::uint64_t clock_ = 0;
  long long windows_ = 0;
  long long flushed_windows_ = 0;
  long long degree_closes_ = 0;
  long long phases_ = 0;
  std::vector<long long> delay_count_;  // exact counts, last bucket clamps

  // Traced replay scratch.
  std::unique_ptr<pops::RoutingEngine> replay_engine_;
  std::unique_ptr<Theorem2Replay> replay_;
  pops::BipartiteMultigraph traffic_;
  pops::EdgeColorer colorer_;
  pops::EdgeColoring coloring_;
  std::vector<int> image_;
  std::vector<char> used_;
  pops::FlatSchedule window_schedule_;
  pops::Network net_;
  long long traffic_edges_ = 0;
  long long executed_ = 0;
};

}  // namespace perfbench
