#include "routing/batch_router.h"

#include "support/check.h"

namespace pops {

BatchRouter::BatchRouter(const Topology& topo,
                         const BatchRouterConfig& config)
    : topo_(topo) {
  POPS_CHECK(config.threads >= 1, "BatchRouter needs at least one thread");
  engines_.reserve(as_size(config.threads));
  // Build every engine on the launching thread, before any worker
  // exists. Construction sizes every routing arena from the topology
  // and reserve_verification() builds the simulator, so the footprint
  // is final before any batch and workers inherit engines that never
  // allocate again.
  for (int i = 0; i < config.threads; ++i) {
    engines_.emplace_back(topo_, config.engine);
    engines_.back().reserve_verification();
  }
  workers_.reserve(as_size(config.threads));
  for (int i = 0; i < config.threads; ++i) {
    workers_.emplace_back(&BatchRouter::worker_loop, this, i);
  }
}

BatchRouter::~BatchRouter() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void BatchRouter::worker_loop(int id) {
  RoutingEngine& engine = engines_[as_size(id)];
  long long taken = 0;  // the last batch this worker joined
  for (;;) {
    Batch batch;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && published_ == taken) cv_work_.wait(mu_);
      if (stopping_) return;
      taken = published_;
      batch = batch_;
    }
    for (;;) {
      const int i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= batch.count) break;
      // Copy assignment reuses the result slot's arrays, so a warm
      // slot never reallocates.
      batch.results[as_size(i)] =
          engine.route(batch.perms[as_size(i)], batch.options);
    }
    // The results were written before this lock; the caller reads them
    // after taking it and seeing finished_, so the mutex orders both.
    MutexLock lock(&mu_);
    if (--busy_ == 0) {
      finished_ = taken;
      cv_done_.notify_all();
    }
  }
}

void BatchRouter::route_batch(Span<const Permutation> perms,
                              Span<FlatSchedule> results,
                              const RouteOptions& options) {
  POPS_CHECK(perms.size() == results.size(),
             "route_batch: one result slot per permutation");
  const int count = perms.count();
  if (count == 0) return;
  MutexLock lock(&mu_);
  POPS_CHECK(!stopping_, "route_batch on a stopping BatchRouter");
  // Another caller's batch is in flight: queue behind it. At busy_ == 0
  // every worker has left the last claim loop, so no one sees the reset.
  while (busy_ > 0) cv_done_.wait(mu_);
  batch_ = Batch{perms.data(), results.data(), options, count};
  next_.store(0, std::memory_order_relaxed);
  busy_ = thread_count();
  const long long mine = ++published_;
  cv_work_.notify_all();
  while (finished_ < mine) cv_done_.wait(mu_);
}

ScratchFootprint BatchRouter::scratch_footprint() const {
  ScratchFootprint footprint;
  for (const RoutingEngine& engine : engines_) {
    footprint.units += engine.scratch_footprint().units;
  }
  return footprint;
}

}  // namespace pops
