#include "serve/traffic_server.h"

#include <algorithm>
#include <cmath>

#include "routing/bounds.h"
#include "support/alloc_guard.h"

namespace pops {
namespace {

// Bucket of a delay value: its bit width (0 to 64), so bucket k
// covers [2^(k-1), 2^k) and bucket 0 is exactly zero.
int bucket_of(std::uint64_t delay) {
  int bits = 0;
  for (; delay != 0; delay >>= 1) ++bits;
  return bits;
}

}  // namespace

void DelayHistogram::record(std::uint64_t delay) {
  ++count;
  sum_low += delay;
  if (sum_low < delay) ++sum_high;  // the low word wrapped: carry
  max = std::max(max, delay);
  ++buckets[as_size(bucket_of(delay))];
}

double DelayHistogram::mean() const {
  if (count == 0) return 0.0;
  const double sum = std::ldexp(static_cast<double>(sum_high), 64) +
                     static_cast<double>(sum_low);
  return sum / static_cast<double>(count);
}

std::uint64_t DelayHistogram::percentile(double q) const {
  if (count == 0) return 0;
  const double clamped = std::min(1.0, std::max(0.0, q));
  const long long target = std::max<long long>(
      1, static_cast<long long>(clamped * static_cast<double>(count) +
                                0.5));
  long long seen = 0;
  for (std::size_t k = 0; k < buckets.size(); ++k) {
    seen += buckets[k];
    if (seen >= target) {
      // Upper bound of bucket k: 0 for k == 0, else 2^k - 1.
      return k == 0 ? 0 : ~std::uint64_t{0} >> (64 - k);
    }
  }
  return max;
}

TrafficServer::TrafficServer(const Topology& topo,
                             const ServerConfig& config)
    : topo_(topo),
      config_(config),
      engine_(topo, config.router) {
  POPS_CHECK(config_.max_window_degree >= 1,
             "ServerConfig: max_window_degree must be >= 1");
  POPS_CHECK(config_.max_window_demands >= 1,
             "ServerConfig: max_window_demands must be >= 1");
  MutexLock lock(&mu_);
  const int n = topo_.processor_count();
  send_count_.assign(as_size(n), 0);
  recv_count_.assign(as_size(n), 0);
  // With debug_shrink_reserves nothing is reserved, so under
  // POPS_ALLOC_GUARD the first window trips its ban: the seeded
  // violation the negative tests rely on.
  if (config_.debug_shrink_reserves) return;
  // A window holds at most n * h demands, at a degree of at most h and
  // at most its demand count (see the header comment).
  const int h = config_.max_window_degree;
  const int widest = static_cast<int>(std::min<long long>(
      config_.max_window_demands, static_cast<long long>(n) * h));
  demands_.reserve(as_size(widest));
  requests_.reserve(as_size(widest));
  engine_.reserve_h_relation(widest, std::min(h, widest));
}

bool TrafficServer::submit(const Demand& demand) {
  MutexLock lock(&mu_);
  const int n = topo_.processor_count();
  if (demand.source < 0 || demand.source >= n || demand.destination < 0 ||
      demand.destination >= n || demand.payload < 0) {
    ++stats_.demands_rejected;
    return false;
  }
  submit_locked(demand);
  return true;
}

void TrafficServer::submit_locked(const Demand& demand) {
  // Admission control keeps the open window a valid h-relation for
  // h = max_window_degree: close first when this demand would breach
  // the cap.
  if (send_count_[as_size(demand.source)] + 1 >
          config_.max_window_degree ||
      recv_count_[as_size(demand.destination)] + 1 >
          config_.max_window_degree) {
    execute_window();
  }

  demands_.push_back(demand);
  const int sends = ++send_count_[as_size(demand.source)];
  const int recvs = ++recv_count_[as_size(demand.destination)];
  window_degree_ = std::max({window_degree_, sends, recvs});
  window_max_arrival_ = std::max(window_max_arrival_, demand.arrival_tick);
  window_payload_ += demand.payload;

  if (pending_demands_locked() >= config_.max_window_demands) {
    execute_window();
  }
}

void TrafficServer::flush() {
  MutexLock lock(&mu_);
  execute_window();
}

void TrafficServer::execute_window() {
  if (demands_.empty()) return;
  // The whole window pipeline — decomposition, per-phase routing,
  // verification, counters — runs under the ban: the constructor reserved
  // the arenas, so any allocation aborts in POPS_ALLOC_GUARD builds.
  ScopedAllocationBan ban("TrafficServer::execute_window");
  const int h = window_degree_;

  requests_.clear();
  for (const Demand& demand : demands_) {
    requests_.push_back(Request{demand.source, demand.destination});
  }
  // route_h_relation aborts unless every demand arrives on the engine's
  // strict simulator, so no counter below comes from an unverified window.
  const int slots = engine_.route_h_relation(requests_).slot_count();
  POPS_CHECK(engine_.phase_count() == h,
             "TrafficServer: window must be h-edge-colorable");

  const std::uint64_t exec_tick = std::max(clock_, window_max_arrival_);

  // Counters.
  stats_.windows_routed += 1;
  stats_.demands_routed += pending_demands_locked();
  stats_.payload_flits_delivered += window_payload_;
  stats_.slots_executed += slots;
  stats_.budget_slots += h_relation_budget(topo_, h);
  stats_.max_window_degree = std::max(stats_.max_window_degree, h);
  for (const Demand& demand : demands_) {
    stats_.queueing_delay.record(exec_tick - demand.arrival_tick);
  }
  clock_ = exec_tick + static_cast<std::uint64_t>(slots);

  // Open the next window; requests_ and the engine keep the executed
  // one for the debug accessors.
  demands_.clear();
  std::fill(send_count_.begin(), send_count_.end(), 0);
  std::fill(recv_count_.begin(), recv_count_.end(), 0);
  window_degree_ = 0;
  window_max_arrival_ = 0;
  window_payload_ = 0;
}

std::vector<Request> TrafficServer::last_window_requests() const {
  MutexLock lock(&mu_);
  return requests_;
}

HRelationPlan TrafficServer::last_window_plan() const {
  MutexLock lock(&mu_);
  return h_relation_plan(engine_);
}

ScratchFootprint TrafficServer::scratch_footprint() const {
  MutexLock lock(&mu_);
  ScratchFootprint footprint = engine_.scratch_footprint();
  footprint.units += demands_.capacity() + requests_.capacity() +
                     send_count_.capacity() + recv_count_.capacity();
  return footprint;
}

}  // namespace pops
