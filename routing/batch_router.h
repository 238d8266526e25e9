// BatchRouter: a fixed pool of worker threads routing many independent
// permutations concurrently, one RoutingEngine confined to each
// worker.
//
// Mei & Rizzi's construction is embarrassingly parallel across
// permutations — instances share nothing — so throughput scales with
// cores as long as no engine state is shared. The pool enforces the
// one-engine-per-thread confinement discipline the thread-safety layer
// (support/mutex.h, POPS_THREAD_COMPATIBLE) was built around: every
// engine is constructed up front, workers only ever touch their own
// engine, and all cross-thread traffic is batch indices.
// After construction the router itself allocates nothing: work is
// handed out through one atomic counter, and results are copied into
// caller-provided FlatSchedules (which stop allocating once their
// arrays are warm).
//
// route_batch(perms, results, options) blocks until every permutation
// is routed into its result slot. Workers claim indices with a single
// fetch_add, so per-item overhead is tens of nanoseconds and small
// topologies still scale. Concurrent route_batch callers are
// serialized internally.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "perm/permutation.h"
#include "pops/flat_plan.h"
#include "routing/engine.h"
#include "routing/router.h"
#include "support/mutex.h"
#include "support/span.h"

namespace pops {

struct BatchRouterConfig {
  /// Worker (and engine) count. Each worker owns one RoutingEngine.
  int threads = 1;
  /// Engine construction options (coloring backend) for every worker.
  RouterOptions engine;
};

class BatchRouter {
 public:
  /// Builds one engine per worker, which sizes every routing arena,
  /// and reserves each engine's verification simulator; then starts the
  /// workers. All allocation happens here.
  explicit BatchRouter(const Topology& topo,
                       const BatchRouterConfig& config = {});
  /// Stops and joins the workers.
  ~BatchRouter();
  BatchRouter(const BatchRouter&) = delete;
  BatchRouter& operator=(const BatchRouter&) = delete;

  /// Routes perms[i] into results[i] for every i; blocks until the
  /// whole batch is done. Every worker routes with `options` on its
  /// own engine, whose coloring backend BatchRouterConfig::engine
  /// fixed. Results are bitwise identical to routing the same
  /// permutations sequentially on one engine.
  /// Concurrent route_batch calls are serialized.
  void route_batch(Span<const Permutation> perms,
                   Span<FlatSchedule> results,
                   const RouteOptions& options = {})
      POPS_EXCLUDES(mu_, client_mu_);

  int thread_count() const { return as_int(workers_.size()); }
  const Topology& topology() const { return topo_; }

  /// Sum of every worker engine's scratch footprint. Call only while
  /// idle (between route_batch calls): the engines belong to the
  /// workers while a batch is in flight.
  ScratchFootprint scratch_footprint() const;

 private:
  void worker_loop(int id);
  /// Work is pending: claimable indices remain. The atomics make this
  /// safe to evaluate anywhere; the wait loop evaluates it under mu_.
  bool has_batch_work() const {
    return batch_next_.load(std::memory_order_relaxed) <
           batch_count_.load(std::memory_order_relaxed);
  }

  Topology topo_;
  std::vector<RoutingEngine> engines_;  // index == worker id
  std::vector<std::thread> workers_;

  Mutex mu_;
  /// Serializes route_batch callers (never held together with mu_
  /// except briefly inside route_batch itself).
  Mutex client_mu_;
  CondVar cv_work_;  // workers wait for a batch / stop
  CondVar cv_done_;  // route_batch waits for completion
  bool stopping_ POPS_GUARDED_BY(mu_) = false;

  // The caller's arrays and options are published by plain writes made
  // under mu_ before the workers are woken (the mutex hand-off orders
  // them); the atomics then carry index claims and completions without
  // further locking. batch_workers_ counts workers inside the claim
  // loop so route_batch can reset the counters only after the last
  // straggler has left.
  const Permutation* batch_perms_ = nullptr;
  FlatSchedule* batch_results_ = nullptr;
  RouteOptions batch_options_;
  std::atomic<int> batch_count_{0};
  std::atomic<int> batch_next_{0};
  std::atomic<int> batch_done_{0};
  int batch_workers_ POPS_GUARDED_BY(mu_) = 0;
};

}  // namespace pops
