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
// After construction the router itself allocates nothing: results are
// copied into caller-provided FlatSchedules (which stop allocating
// once their arrays are warm).
//
// route_batch(perms, results, options) blocks until every permutation
// is routed into its result slot. Batches are numbered and handed out
// under one lock: batch k is published only once every worker has
// left batch k - 1, each worker joins every batch exactly once, and
// the last one out marks it finished. Concurrent route_batch callers
// queue on the same lock and run one batch at a time. Within a batch,
// workers claim indices from one atomic counter with a single
// fetch_add, so per-item overhead is tens of nanoseconds and small
// topologies still scale; the counter is reset only while no worker
// is claiming.
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
  void route_batch(Span<const Permutation> perms, Span<FlatSchedule> results,
                   const RouteOptions& options = {}) POPS_EXCLUDES(mu_);

  int thread_count() const { return as_int(workers_.size()); }
  const Topology& topology() const { return topo_; }

  /// Sum of every worker engine's scratch footprint. Call only while
  /// idle (between route_batch calls): the engines belong to the
  /// workers while a batch is in flight.
  ScratchFootprint scratch_footprint() const;

 private:
  /// One route_batch call: the caller's arrays and options.
  struct Batch {
    const Permutation* perms = nullptr;
    FlatSchedule* results = nullptr;
    RouteOptions options;
    int count = 0;
  };

  void worker_loop(int id);

  Topology topo_;
  std::vector<RoutingEngine> engines_;  // index == worker id
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar cv_work_;  // workers wait for the next batch or the stop
  CondVar cv_done_;  // callers wait for the pool or their batch
  Batch batch_ POPS_GUARDED_BY(mu_);
  // Batches handed out, and the last batch every worker has left.
  long long published_ POPS_GUARDED_BY(mu_) = 0;
  long long finished_ POPS_GUARDED_BY(mu_) = 0;
  int busy_ POPS_GUARDED_BY(mu_) = 0;  // workers still on batch_
  bool stopping_ POPS_GUARDED_BY(mu_) = false;
  // The next index to claim. Stored only under mu_ while busy_ is 0,
  // and read by workers after they take batch_ under mu_, so the mutex
  // orders every reset before the claims that follow it.
  std::atomic<int> next_{0};
};

}  // namespace pops
