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
  for (;;) {
    {
      MutexLock lock(&mu_);
      while (!stopping_ && !has_batch_work()) cv_work_.wait(mu_);
      if (!has_batch_work()) return;  // stopping_, and nothing left to do
      ++batch_workers_;
    }
    // Snapshot the published batch. The plain fields were written
    // under mu_ before the workers were woken, and this worker just
    // released mu_, so the reads are ordered; route_batch does not
    // reuse them until batch_workers_ drops back to zero.
    const Permutation* perms = batch_perms_;
    FlatSchedule* results = batch_results_;
    const RouteOptions options = batch_options_;
    const int count = batch_count_.load(std::memory_order_relaxed);
    for (;;) {
      const int i = batch_next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      // Copy assignment reuses the result slot's arrays, so a warm
      // slot never reallocates.
      results[as_size(i)] = engine.route(perms[as_size(i)], options);
      batch_done_.fetch_add(1, std::memory_order_release);
    }
    {
      MutexLock lock(&mu_);
      --batch_workers_;
      if (batch_workers_ == 0 &&
          batch_done_.load(std::memory_order_acquire) ==
              batch_count_.load(std::memory_order_relaxed)) {
        cv_done_.notify_all();
      }
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
  // One batch at a time; concurrent callers queue here without
  // touching the workers' lock.
  MutexLock client(&client_mu_);
  {
    MutexLock lock(&mu_);
    POPS_CHECK(!stopping_, "route_batch on a stopping BatchRouter");
    batch_perms_ = perms.data();
    batch_results_ = results.data();
    batch_options_ = options;
    batch_done_.store(0, std::memory_order_relaxed);
    batch_next_.store(0, std::memory_order_relaxed);
    batch_count_.store(count, std::memory_order_relaxed);
  }
  cv_work_.notify_all();
  {
    MutexLock lock(&mu_);
    // Wait for all results AND for every claimer to leave the claim
    // loop: a straggler may still bump batch_next_ after the last
    // result lands, and the counters must not be recycled under it.
    while (batch_done_.load(std::memory_order_acquire) < count ||
           batch_workers_ > 0) {
      cv_done_.wait(mu_);
    }
    batch_count_.store(0, std::memory_order_relaxed);
    batch_next_.store(0, std::memory_order_relaxed);
    batch_perms_ = nullptr;
    batch_results_ = nullptr;
  }
}

ScratchFootprint BatchRouter::scratch_footprint() const {
  ScratchFootprint footprint;
  for (const RoutingEngine& engine : engines_) {
    footprint.units += engine.scratch_footprint().units;
  }
  return footprint;
}

}  // namespace pops
