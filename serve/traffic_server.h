// TrafficServer: the streaming h-relation serving layer.
//
// Every workload below this layer is a one-shot call; the server is
// the long-running system the ROADMAP's "millions of users" scenario
// asks for. It accepts an open-loop stream of point-to-point demands,
// accumulates them into a window that is always a valid h-relation
// (the degree cap is enforced on admission, so the König decomposition
// never sees a window of unbounded degree), and on window close hands
// the window to its RoutingEngine's route_h_relation, which decomposes,
// routes and verifies it: the server never reports counters from a
// window that did not deliver every demand on the strict simulator.
//
// Time is measured in slots ("ticks"): demands carry the arrival tick
// of their open-loop generator, a window executes at
// max(server clock, latest arrival in the window), and the clock then
// advances by the window's slot count. Queueing delay of a demand is
// the tick distance from its arrival to its window's execution,
// aggregated in a fixed-bucket histogram (p50/p99 without allocation).
//
// Ownership follows the RoutingEngine discipline: the server owns its window
// arrays and the engine (which owns every routing intermediate and the
// verifying simulator), and rebuilds them in place per window. A window never
// holds more than min(max_window_demands, n * h) demands, nor a degree above h
// or its demand count, so the constructor reserves every arena at that size
// (reserve_h_relation for the engine) and routes nothing. scratch_footprint()
// is the aggregate capacity the soak tests compare across thousands of windows;
// under POPS_ALLOC_GUARD builds the contract is additionally enforced at
// runtime: every window executes inside a ScopedAllocationBan.
//
// Unlike the engines below it, the server IS thread-safe: all mutable
// state is guarded by one mutex (annotations checked by clang
// -Wthread-safety), so open-loop generators on several threads can
// submit into one shared server. Windows still close and route
// serially under the lock — sharding the server across engines is the
// ROADMAP's next step, and it inherits these annotations.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "pops/network.h"
#include "pops/patterns.h"
#include "routing/engine.h"
#include "routing/h_relation.h"
#include "support/mutex.h"
#include "support/thread_annotations.h"

namespace pops {

struct ServerConfig {
  /// Window degree cap h: a window never holds more demands sent by —
  /// or addressed to — one processor. A demand that would exceed the
  /// cap closes the window first and opens the next one.
  int max_window_degree = 4;
  /// Window demand-count cap: the window closes as soon as it holds
  /// this many demands.
  int max_window_demands = 1024;
  /// How the server's engine colors H of a phase that holds all n
  /// processors' packets (a d-regular H). Window traffic, and the H of
  /// every smaller phase, is always colored with alternating path (see
  /// RoutingEngine::route_h_relation).
  RouterOptions router;
  /// Test-only hook: skip the constructor's arena reserves. Every
  /// window still runs under the allocation ban, so under
  /// POPS_ALLOC_GUARD the first window trips the guard — the seeded
  /// violation test_alloc_guard uses to prove the ban is live. Never
  /// set this in production code.
  bool debug_shrink_reserves = false;
};

/// Power-of-two-bucket latency histogram: bucket k counts delays in
/// [2^(k-1), 2^k) (bucket 0 counts exact zeros, bucket 64 reaches
/// UINT64_MAX). Fixed storage, so recording is allocation-free;
/// percentiles are bucket upper bounds.
struct DelayHistogram {
  long long count = 0;
  /// The sum of every recorded delay as a two-word integer
  /// (sum_high * 2^64 + sum_low): two delays near UINT64_MAX already
  /// pass 2^64.
  std::uint64_t sum_low = 0;
  std::uint64_t sum_high = 0;
  std::uint64_t max = 0;
  std::array<long long, 65> buckets{};

  void record(std::uint64_t delay);
  /// Upper bound of the bucket holding the q-quantile (q in [0, 1]);
  /// 0 for an empty histogram.
  std::uint64_t percentile(double q) const;
  /// Mean delay; 0 for an empty histogram.
  double mean() const;
};

struct ServerStats {
  long long windows_routed = 0;
  long long demands_routed = 0;
  /// Demands submit() refused: a processor outside the topology or a
  /// negative payload. They never enter a window.
  long long demands_rejected = 0;
  long long payload_flits_delivered = 0;
  /// Sum of executed window slot counts...
  long long slots_executed = 0;
  /// ...against the sum of per-window h-relation budgets
  /// (h * 2 * ceil(d/g), every phase at the Theorem 2 bound). A phase
  /// takes at most its budget share and less whenever its busiest
  /// group or busiest coupler allows, so slots_executed <=
  /// budget_slots.
  long long budget_slots = 0;
  /// Largest window degree h closed so far.
  int max_window_degree = 0;
  /// Ticks from demand arrival to window execution.
  DelayHistogram queueing_delay;

  double slots_per_window() const {
    return windows_routed == 0
               ? 0.0
               : static_cast<double>(slots_executed) /
                     static_cast<double>(windows_routed);
  }
};

class TrafficServer {
 public:
  explicit TrafficServer(const Topology& topo,
                         const ServerConfig& config = {});

  const Topology& topology() const { return topo_; }
  const ServerConfig& config() const { return config_; }

  /// Snapshot of the counters, by value: a reference into guarded
  /// state would escape the lock.
  ServerStats stats() const POPS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }

  /// The server clock, in ticks (slots executed so far, gated by
  /// arrival times).
  std::uint64_t now() const POPS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return clock_;
  }

  /// Enqueues one demand into the open window, closing and executing
  /// the window first when the demand would breach the degree cap, and
  /// after adding when the count cap is reached. Returns false, counts
  /// the demand in ServerStats::demands_rejected and leaves the window
  /// untouched when the demand names a processor outside the topology
  /// or carries a negative payload.
  bool submit(const Demand& demand) POPS_EXCLUDES(mu_);

  /// Closes and executes the open window; a no-op when it is empty.
  void flush() POPS_EXCLUDES(mu_);

  /// Demands waiting in the open window.
  int pending_demands() const POPS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return pending_demands_locked();
  }
  /// Degree (max per-processor send/receive count) of the open window.
  int pending_degree() const POPS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return window_degree_;
  }

  /// Degree of the last executed window (0 before the first window).
  int last_window_degree() const POPS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return engine_.phase_count();
  }
  /// Slot count of the last executed window.
  int last_window_slots() const POPS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return engine_.schedule().slot_count();
  }

  /// Debug/verification accessors: the last executed window as the
  /// routing/h_relation types (the plan is h_relation_plan() of the
  /// server's engine), so tests can feed the server's output through
  /// verify_h_relation. These materialize fresh vectors and are not
  /// part of the serving hot path.
  std::vector<Request> last_window_requests() const POPS_EXCLUDES(mu_);
  HRelationPlan last_window_plan() const POPS_EXCLUDES(mu_);

  /// Aggregate capacity of every server-owned arena (the engine and its
  /// simulator included). Two equal footprints around a stretch of
  /// serving mean no steady-state allocation grew.
  ScratchFootprint scratch_footprint() const POPS_EXCLUDES(mu_);

 private:
  // The mutex is not recursive: public entry points lock once and call
  // only the *_locked / REQUIRES-annotated private layer below.
  void submit_locked(const Demand& demand) POPS_REQUIRES(mu_);
  void execute_window() POPS_REQUIRES(mu_);
  int pending_demands_locked() const POPS_REQUIRES(mu_) {
    return as_int(demands_.size());
  }

  // Immutable after construction (no guard needed).
  Topology topo_;
  ServerConfig config_;

  mutable Mutex mu_;

  ServerStats stats_ POPS_GUARDED_BY(mu_);
  std::uint64_t clock_ POPS_GUARDED_BY(mu_) = 0;

  // --- Open window ---
  std::vector<Demand> demands_ POPS_GUARDED_BY(mu_);
  std::vector<int> send_count_ POPS_GUARDED_BY(mu_);  // per processor
  std::vector<int> recv_count_ POPS_GUARDED_BY(mu_);  // per processor
  int window_degree_ POPS_GUARDED_BY(mu_) = 0;
  std::uint64_t window_max_arrival_ POPS_GUARDED_BY(mu_) = 0;
  long long window_payload_ POPS_GUARDED_BY(mu_) = 0;

  // --- Routing (rebuilt in place per window) ---
  // The last executed window as requests (request id == demand index
  // in the window); the engine keeps its phases and schedule until the
  // next window closes.
  std::vector<Request> requests_ POPS_GUARDED_BY(mu_);
  RoutingEngine engine_ POPS_GUARDED_BY(mu_);
};

}  // namespace pops
