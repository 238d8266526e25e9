#include "serve/traffic_server.h"

#include <algorithm>

#include "routing/bounds.h"
#include "support/alloc_guard.h"
#include "support/format.h"

namespace pops {
namespace {

// Bucket of a delay value: its bit width, so bucket k covers
// [2^(k-1), 2^k) and bucket 0 is exactly zero.
int bucket_of(std::uint64_t delay) {
  int bits = 0;
  while (delay >> bits) ++bits;
  return bits;
}

}  // namespace

void DelayHistogram::record(std::uint64_t delay) {
  ++count;
  sum += delay;
  max = std::max(max, delay);
  ++buckets[as_size(bucket_of(delay))];
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
      return k == 0 ? 0 : (std::uint64_t{1} << k) - 1;
    }
  }
  return max;
}

TrafficServer::TrafficServer(const Topology& topo,
                             const ServerConfig& config)
    : topo_(topo),
      config_(config),
      engine_(topo, config.router),
      traffic_(topo.processor_count(), topo.processor_count()),
      net_(topo) {
  POPS_CHECK(config_.max_window_degree >= 1,
             "ServerConfig: max_window_degree must be >= 1");
  POPS_CHECK(config_.max_window_demands >= 1,
             "ServerConfig: max_window_demands must be >= 1");
  MutexLock lock(&mu_);
  const int n = topo_.processor_count();
  send_count_.assign(as_size(n), 0);
  recv_count_.assign(as_size(n), 0);
  image_.assign(as_size(n), -1);
  demand_of_source_.assign(as_size(n), -1);
  destination_used_.assign(as_size(n), 0);
  if (!config_.debug_shrink_reserves) {
    demands_.reserve(as_size(config_.max_window_demands));
    last_demands_.reserve(as_size(config_.max_window_demands));
    phase_offsets_.reserve(as_size(config_.max_window_degree + 1));
    phase_demands_.reserve(as_size(config_.max_window_demands));
    phase_cursor_.reserve(as_size(config_.max_window_degree));
    // A window of h phases filters h Theorem 2 schedules of at most 2n
    // transmissions each.
    window_schedule_.reserve(
        2 * n * config_.max_window_degree,
        h_relation_budget(topo_, config_.max_window_degree));
    // No window holds more demands than the count cap, so the coloring
    // never needs a larger color array, and the traffic graph never
    // holds more edges.
    coloring_.color.reserve(as_size(config_.max_window_demands));
    traffic_.reserve_edges(static_cast<int>(std::min<long long>(
        config_.max_window_demands,
        static_cast<long long>(n) * config_.max_window_degree)));
    // Peak buffer occupancy of a processor: its un-sent window sources
    // plus its delivered packets (each at most the window degree) plus
    // relayed packets in flight (drained within one phase, so at most
    // one per phase slot).
    const int degree =
        std::min(config_.max_window_degree, config_.max_window_demands);
    net_.reserve_buffers(2 * degree + theorem2_slots(topo_));
    prime_scratch();
  }
  // From here on every window executes under the allocation ban. With
  // debug_shrink_reserves the arenas were neither reserved nor primed,
  // so under POPS_ALLOC_GUARD the first window must trip the guard —
  // the seeded violation the negative tests rely on.
  steady_ = true;
  net_.ban_steady_allocations(!config_.debug_shrink_reserves);
}

void TrafficServer::prime_scratch() {
  // Drive two synthetic worst-shape windows through the full serving
  // path, then zero the counters: one window concentrated on a single
  // processor (degree cap — the largest colorer slot tables) and one
  // at the demand-count cap (widest traffic graph, coloring and phase
  // arrays). Every later window fits inside one of these shapes, so
  // steady-state serving starts allocation-free instead of
  // allocation-free-after-warm-up.
  const int n = topo_.processor_count();
  const int h = config_.max_window_degree;
  const int degree = std::min(h, config_.max_window_demands);
  Demand demand;
  for (int k = 0; k < degree; ++k) {
    demand.source = 0;
    demand.destination = k % n;
    submit_locked(demand);
  }
  execute_window();
  const long long widest = std::min<long long>(
      config_.max_window_demands, static_cast<long long>(n) * h);
  long long submitted = 0;
  for (int r = 0; r < h && submitted < widest; ++r) {
    for (int p = 0; p < n && submitted < widest; ++p) {
      demand.source = p;
      demand.destination = (p + r + 1) % n;
      submit_locked(demand);
      ++submitted;
    }
  }
  execute_window();
  stats_ = ServerStats{};
  clock_ = 0;
  last_demands_.clear();
  last_h_ = 0;
  window_schedule_.clear();
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
  // The whole window pipeline — graph build, coloring, per-phase
  // routing, simulation, counters — runs under the ban once the
  // constructor primed the arenas: any steady-state allocation aborts
  // in POPS_ALLOC_GUARD builds.
  ScopedAllocationBan ban("TrafficServer::execute_window", steady_);
  const int n = topo_.processor_count();
  const int h = window_degree_;
  const int demand_count = pending_demands_locked();

  // The traffic multigraph: one edge per demand (edge id == demand
  // id), maximum degree exactly h, so König properly colors it with h
  // colors — each color class a partial permutation.
  traffic_.reset(n, n);
  for (const Demand& demand : demands_) {
    traffic_.add_edge(demand.source, demand.destination);
  }
  // Window traffic is irregular: alternating path colors it directly,
  // where a divide-and-conquer backend would first pad it to h-regular
  // on n + n vertices.
  colorer_.color(traffic_, ColoringAlgorithm::kAlternatingPath, coloring_);
  POPS_CHECK(coloring_.num_colors == h,
             "TrafficServer: window must be h-edge-colorable");

  // Bucket the demands per phase (counting sort into CSR).
  phase_offsets_.assign(as_size(h + 1), 0);
  for (int e = 0; e < demand_count; ++e) {
    ++phase_offsets_[as_size(coloring_.color[as_size(e)] + 1)];
  }
  for (int c = 0; c < h; ++c) {
    phase_offsets_[as_size(c + 1)] += phase_offsets_[as_size(c)];
  }
  phase_demands_.resize(as_size(demand_count));
  phase_cursor_.assign(as_size(h), 0);
  for (int c = 0; c < h; ++c) {
    phase_cursor_[as_size(c)] = phase_offsets_[as_size(c)];
  }
  for (int e = 0; e < demand_count; ++e) {
    const int c = coloring_.color[as_size(e)];
    phase_demands_[as_size(phase_cursor_[as_size(c)]++)] = e;
  }

  const std::uint64_t exec_tick = std::max(clock_, window_max_arrival_);

  // Route every phase as a padded permutation through the reused
  // engine, filtering the padding transmissions into the window
  // schedule under demand-id packet names (dropping transmissions only
  // relaxes the optical constraints, so validity is preserved).
  window_schedule_.clear();
  for (int c = 0; c < h; ++c) {
    std::fill(image_.begin(), image_.end(), -1);
    std::fill(demand_of_source_.begin(), demand_of_source_.end(), -1);
    std::fill(destination_used_.begin(), destination_used_.end(), 0);
    for (int k = phase_offsets_[as_size(c)];
         k < phase_offsets_[as_size(c + 1)]; ++k) {
      const int e = phase_demands_[as_size(k)];
      const Demand& demand = demands_[as_size(e)];
      image_[as_size(demand.source)] = demand.destination;
      demand_of_source_[as_size(demand.source)] = e;
      destination_used_[as_size(demand.destination)] = 1;
    }
    // Pad idle sources onto unused destinations, in order, so the
    // Theorem 2 router applies as-is.
    int next_free = 0;
    for (int p = 0; p < n; ++p) {
      if (image_[as_size(p)] != -1) continue;
      while (destination_used_[as_size(next_free)] != 0) ++next_free;
      image_[as_size(p)] = next_free;
      destination_used_[as_size(next_free)] = 1;
    }

    const FlatSchedule& padded =
        engine_.route_permutation(Span<const int>(image_));
    for (int s = 0; s < padded.slot_count(); ++s) {
      window_schedule_.begin_slot();
      for (const Transmission& t : padded.slot(s)) {
        const int e = demand_of_source_[as_size(t.packet)];
        if (e == -1) continue;
        window_schedule_.push(Transmission{t.source, t.destination, e});
      }
    }
  }

  // Execute on the strict simulator; the server never reports counters
  // from a window that did not verify.
  net_.reset();
  for (int e = 0; e < demand_count; ++e) {
    const Demand& demand = demands_[as_size(e)];
    net_.load_packet(
        Packet{e, demand.source, demand.destination, demand.payload, 0});
  }
  const bool executed = net_.execute(window_schedule_);
  if (!executed) {
    // Cold failure path: composing the abort diagnostic allocates and
    // must not trip the window ban — the simulator's rejection is the
    // failure to report.
    ScopedAllocationAllow allow;
    POPS_CHECK(false, str_cat("TrafficServer: window rejected by the "
                              "simulator: ",
                              net_.failure()));
  }
  POPS_CHECK(net_.all_delivered(),
             "TrafficServer: window executed but left demands "
             "undelivered");

  // Counters.
  const int slots = window_schedule_.slot_count();
  stats_.windows_routed += 1;
  stats_.demands_routed += demand_count;
  stats_.payload_flits_delivered += window_payload_;
  stats_.slots_executed += slots;
  stats_.budget_slots += h_relation_budget(topo_, h);
  stats_.max_window_degree = std::max(stats_.max_window_degree, h);
  for (const Demand& demand : demands_) {
    stats_.queueing_delay.record(exec_tick - demand.arrival_tick);
  }
  clock_ = exec_tick + static_cast<std::uint64_t>(slots);

  // Keep the executed window for the debug accessors (buffer swap:
  // capacities survive, so steady-state serving still never
  // allocates), then open the next window.
  std::swap(demands_, last_demands_);
  last_h_ = h;
  demands_.clear();
  std::fill(send_count_.begin(), send_count_.end(), 0);
  std::fill(recv_count_.begin(), recv_count_.end(), 0);
  window_degree_ = 0;
  window_max_arrival_ = 0;
  window_payload_ = 0;
}

std::vector<Request> TrafficServer::last_window_requests() const {
  MutexLock lock(&mu_);
  std::vector<Request> requests;
  requests.reserve(last_demands_.size());
  for (const Demand& demand : last_demands_) {
    requests.push_back(Request{demand.source, demand.destination});
  }
  return requests;
}

HRelationPlan TrafficServer::last_window_plan() const {
  MutexLock lock(&mu_);
  HRelationPlan plan;
  plan.h = last_h_;
  if (last_h_ == 0) return plan;
  const int slots_per_phase = theorem2_slots(topo_);
  POPS_CHECK(window_schedule_.slot_count() == last_h_ * slots_per_phase,
             "last_window_plan: schedule does not cover the phases");
  for (int c = 0; c < last_h_; ++c) {
    HRelationPhase phase;
    for (int k = phase_offsets_[as_size(c)];
         k < phase_offsets_[as_size(c + 1)]; ++k) {
      phase.requests.push_back(phase_demands_[as_size(k)]);
    }
    for (int s = 0; s < slots_per_phase; ++s) {
      SlotPlan slot;
      for (const Transmission& t :
           window_schedule_.slot(c * slots_per_phase + s)) {
        slot.transmissions.push_back(t);
      }
      phase.slots.push_back(std::move(slot));
    }
    plan.phases.push_back(std::move(phase));
  }
  return plan;
}

ScratchFootprint TrafficServer::scratch_footprint() const {
  MutexLock lock(&mu_);
  ScratchFootprint footprint = engine_.scratch_footprint();
  footprint.units +=
      demands_.capacity() + last_demands_.capacity() +
      send_count_.capacity() + recv_count_.capacity() +
      traffic_.scratch_capacity() + colorer_.scratch_capacity() +
      coloring_.color.capacity() + phase_offsets_.capacity() +
      phase_demands_.capacity() + phase_cursor_.capacity() +
      image_.capacity() +
      demand_of_source_.capacity() + destination_used_.capacity() +
      window_schedule_.transmission_capacity() +
      window_schedule_.offset_capacity() + net_.scratch_capacity();
  return footprint;
}

}  // namespace pops
