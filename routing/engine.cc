#include "routing/engine.h"

#include <algorithm>

#include "support/alloc_guard.h"

#include <ostream>

namespace pops {

std::string to_string(const ScratchFootprint& footprint) {
  return str_cat(footprint.units, " units");
}

std::ostream& operator<<(std::ostream& os,
                         const ScratchFootprint& footprint) {
  return os << footprint.units << " units";
}

RoutingEngine::RoutingEngine(const Topology& topo,
                             const RouterOptions& options)
    : topo_(topo),
      options_(options),
      h_(topo.g(), topo.g()),
      h_q_(topo.g(), topo.g()) {
  const int n = topo_.processor_count();
  // Pre-size everything whose final size is known from (d, g) alone,
  // so even the first route call grows as little as possible and the
  // steady state cannot grow at all. A batch H_q takes at most g of
  // H's d colors, so it has at most g * min(d, g) edges.
  const int batch_edges = topo_.g() * std::min(topo_.d(), topo_.g());
  intermediate_of_.reserve(as_size(n));
  source_of_edge_.reserve(as_size(batch_edges));
  fair_.color.reserve(as_size(batch_edges));
  used_of_group_.reserve(as_size(topo_.g()));
  theorem2_schedule_.reserve(2 * n, theorem2_slots(topo_));
  // Direct schedules: n transmissions over at most d slots.
  direct_schedule_.reserve(n, topo_.d());
  coupler_count_.reserve(as_size(topo_.coupler_count()));
  coupler_offset_.reserve(as_size(topo_.coupler_count() + 1));
  coupler_queue_.reserve(as_size(n));
  image_seen_stamp_.assign(as_size(n), 0);
}

const FlatSchedule& RoutingEngine::route(const Permutation& pi,
                                         const RouteOptions& options) {
  switch (options.strategy) {
    case RouteStrategy::kDirect: {
      const FlatSchedule& schedule = route_direct(pi);
      last_strategy_ = RouteStrategy::kDirect;
      if (options.verify) verify_or_abort(schedule, pi, "direct");
      return schedule;
    }
    case RouteStrategy::kTheorem2: {
      const FlatSchedule& schedule = route_permutation(pi);
      last_strategy_ = RouteStrategy::kTheorem2;
      if (options.verify) verify_or_abort(schedule, pi, "theorem2");
      return schedule;
    }
    case RouteStrategy::kBest:
      // route_best executes both candidates on the internal simulator
      // unconditionally and records the winner, so options.verify adds
      // nothing here.
      return route_best(pi);
  }
  POPS_CHECK(false, "route: unknown RouteStrategy");
  return theorem2_schedule_;  // unreachable
}

void RoutingEngine::verify_or_abort(const FlatSchedule& schedule,
                                    const Permutation& pi,
                                    const char* what) {
  if (delivers(schedule, pi)) return;
  // Cold failure path: composing the diagnostic allocates, and the
  // abort must name the broken schedule, not trip the guard.
  ScopedAllocationAllow allow;
  POPS_CHECK(false, str_cat("route: ", what,
                            " schedule failed verification: ",
                            verification_failure()));
}

const FlatSchedule& RoutingEngine::route_permutation(
    const Permutation& pi) {
  ScopedAllocationBan ban("RoutingEngine::route_permutation", warm_theorem2_);
  // The Permutation constructor already validated bijectivity.
  build_theorem2(Span<const int>(pi.images()));
  return theorem2_schedule_;
}

const FlatSchedule& RoutingEngine::route_permutation(
    Span<const int> images) {
  ScopedAllocationBan ban("RoutingEngine::route_permutation", warm_theorem2_);
  const int n = topo_.processor_count();
  POPS_CHECK(images.count() == n,
             "route_permutation: image array does not fit the topology");
  ++image_epoch_;
  for (int i = 0; i < n; ++i) {
    const int v = images[as_size(i)];
    POPS_CHECK(v >= 0 && v < n,
               "route_permutation: image out of range");
    POPS_CHECK(image_seen_stamp_[as_size(v)] != image_epoch_,
               "route_permutation: image array is not a permutation");
    image_seen_stamp_[as_size(v)] = image_epoch_;
  }
  build_theorem2(images);
  return theorem2_schedule_;
}

void RoutingEngine::build_theorem2(Span<const int> images) {
  const auto pi = [&images](int i) { return images[as_size(i)]; };
  POPS_CHECK(images.count() == topo_.processor_count(),
             "route_permutation: permutation does not fit the topology");
  const int d = topo_.d();
  const int g = topo_.g();
  const int n = topo_.processor_count();
  theorem2_schedule_.clear();
  intermediate_of_.assign(as_size(n), -1);

  if (d == 1) {
    // One slot: processor == group, so sources and destinations of the
    // n transmissions are pairwise distinct and every coupler carries
    // at most one packet.
    theorem2_schedule_.begin_slot();
    for (int source = 0; source < n; ++source) {
      theorem2_schedule_.push(Transmission{source, pi(source), source});
      intermediate_of_[as_size(source)] = source;
    }
    warm_theorem2_ = true;
    return;
  }

  // H: one edge per packet, source group -> destination group. Edge id
  // == source processor id because sources are added in order and each
  // holds exactly one packet.
  h_.reset(g, g);
  for (int source = 0; source < n; ++source) {
    h_.add_edge(topo_.group_of(source), topo_.group_of(pi(source)));
  }
  colorer_.color(h_, options_.coloring, coloring_);
  POPS_CHECK(coloring_.num_colors == d,
             "Theorem 2: H must be d-edge-colorable");

  const int batches = (d + g - 1) / g;
  for (int q = 0; q < batches; ++q) {
    const int color_lo = q * g;
    const int color_hi = std::min((q + 1) * g, d);

    // H_q: the packets whose H-color falls in this batch. Every group
    // has exactly one edge per color, so H_q is (color_hi - color_lo)-
    // regular with degree <= g, and H's coloring restricted to the
    // batch and shifted down by color_lo is already a proper coloring
    // of H_q with that many colors, each class a perfect matching.
    h_q_.reset(g, g);
    source_of_edge_.clear();
    fair_.color.clear();
    fair_.num_colors = color_hi - color_lo;
    for (int source = 0; source < n; ++source) {
      const int c = coloring_.color[as_size(source)];
      if (c < color_lo || c >= color_hi) continue;
      h_q_.add_edge(topo_.group_of(source), topo_.group_of(pi(source)));
      source_of_edge_.push_back(source);
      fair_.color.push_back(c - color_lo);
    }

    // Fair distribution: that coloring balanced onto g classes.
    // Properness gives the two distinctness properties; the balanced
    // size (exactly Delta_q <= d per class) is the receiver capacity
    // of an intermediate group.
    colorer_.spread(h_q_, g, fair_);

    used_of_group_.assign(as_size(g), 0);
    theorem2_schedule_.begin_slot();  // distribute: slot 2q
    for (int e = 0; e < h_q_.edge_count(); ++e) {
      const int source = source_of_edge_[as_size(e)];
      const int mid_group = fair_.color[as_size(e)];
      const int mid_index = used_of_group_[as_size(mid_group)]++;
      POPS_CHECK(mid_index < d,
                 "fair distribution overfilled an intermediate group");
      const int mid = topo_.processor(mid_group, mid_index);
      intermediate_of_[as_size(source)] = mid;
      theorem2_schedule_.push(Transmission{source, mid, source});
    }
    theorem2_schedule_.begin_slot();  // deliver: slot 2q + 1
    for (int e = 0; e < h_q_.edge_count(); ++e) {
      const int source = source_of_edge_[as_size(e)];
      theorem2_schedule_.push(Transmission{
          intermediate_of_[as_size(source)], pi(source), source});
    }
  }

  POPS_CHECK(theorem2_schedule_.slot_count() == theorem2_slots(topo_),
             "Theorem 2 schedule has the wrong number of slots");
  warm_theorem2_ = true;
}

const FlatSchedule& RoutingEngine::route_direct(const Permutation& pi) {
  // The direct builder never colors, so it is eligible regardless of
  // the configured coloring backend.
  ScopedAllocationBan ban("RoutingEngine::route_direct", warm_direct_);
  build_direct(pi);
  return direct_schedule_;
}

void RoutingEngine::build_direct(const Permutation& pi) {
  POPS_CHECK(pi.size() == topo_.processor_count(),
             "route_direct: permutation does not fit the topology");
  const int n = topo_.processor_count();
  const int couplers = topo_.coupler_count();

  // Bucket the packets per coupler (CSR). Sources are enumerated in
  // order, so each bucket lists its packets by source id.
  coupler_count_.assign(as_size(couplers), 0);
  direct_max_demand_ = 0;
  for (int source = 0; source < n; ++source) {
    const int coupler = topo_.coupler(topo_.group_of(pi(source)),
                                      topo_.group_of(source));
    direct_max_demand_ =
        std::max(direct_max_demand_, ++coupler_count_[as_size(coupler)]);
  }
  coupler_offset_.assign(as_size(couplers + 1), 0);
  for (int c = 0; c < couplers; ++c) {
    coupler_offset_[as_size(c + 1)] =
        coupler_offset_[as_size(c)] + coupler_count_[as_size(c)];
  }
  coupler_queue_.resize(as_size(n));
  // Reuse coupler_count_ as the per-coupler fill cursor.
  for (int c = 0; c < couplers; ++c) {
    coupler_count_[as_size(c)] = coupler_offset_[as_size(c)];
  }
  for (int source = 0; source < n; ++source) {
    const int coupler = topo_.coupler(topo_.group_of(pi(source)),
                                      topo_.group_of(source));
    coupler_queue_[as_size(coupler_count_[as_size(coupler)]++)] = source;
  }

  // Slot t drains the t-th packet of every non-empty bucket. Distinct
  // couplers per slot by construction; distinct transmitters and
  // receivers because pi is a permutation and each source appears in
  // exactly one bucket position.
  direct_schedule_.clear();
  for (int slot = 0; slot < direct_max_demand_; ++slot) {
    direct_schedule_.begin_slot();
    for (int c = 0; c < couplers; ++c) {
      const int begin = coupler_offset_[as_size(c)];
      const int end = coupler_offset_[as_size(c + 1)];
      if (end - begin <= slot) continue;
      const int source = coupler_queue_[as_size(begin + slot)];
      direct_schedule_.push(Transmission{source, pi(source), source});
    }
  }
  warm_direct_ = true;
}

const FlatSchedule& RoutingEngine::route_best(const Permutation& pi) {
  ScopedAllocationBan ban("RoutingEngine::route_best",
                          warm_direct_ && warm_theorem2_ && warm_verify_);
  build_direct(pi);
  if (!delivers(direct_schedule_, pi)) {
    // Cold failure path: composing the diagnostic allocates, and the
    // abort must name the broken schedule, not trip the guard.
    ScopedAllocationAllow allow;
    POPS_CHECK(false,
               str_cat("best_route: direct candidate failed verification: ",
                       verification_failure()));
  }
  build_theorem2(Span<const int>(pi.images()));
  if (!delivers(theorem2_schedule_, pi)) {
    ScopedAllocationAllow allow;
    POPS_CHECK(
        false,
        str_cat("best_route: Theorem 2 candidate failed verification: ",
                verification_failure()));
  }
  // Direct wins ties: same length, one hop per packet and no relay
  // buffering.
  if (direct_schedule_.slot_count() <=
      theorem2_schedule_.slot_count()) {
    last_strategy_ = RouteStrategy::kDirect;
    return direct_schedule_;
  }
  last_strategy_ = RouteStrategy::kTheorem2;
  return theorem2_schedule_;
}

const FlatSchedule& RoutingEngine::route_h_relation(
    Span<const Request> requests) {
  const int n = topo_.processor_count();
  const int count = requests.count();

  // The traffic multigraph: one edge per request, processor to
  // processor, so the edge id is the request id.
  traffic_.reset(n, n);
  traffic_.reserve_edges(count);
  for (const Request& request : requests) {
    POPS_CHECK(request.source >= 0 && request.source < n,
               "route_h_relation: request source out of range");
    POPS_CHECK(request.destination >= 0 && request.destination < n,
               "route_h_relation: request destination out of range");
    traffic_.add_edge(request.source, request.destination);
  }
  // König: h colors, h the maximum degree. The traffic is irregular,
  // so alternating path colors it directly, where a divide-and-conquer
  // backend would first pad it to h-regular on n + n vertices.
  colorer_.color(traffic_, ColoringAlgorithm::kAlternatingPath,
                 traffic_coloring_);
  const int h = traffic_coloring_.num_colors;

  // Bucket the requests by phase with a stable counting sort, so every
  // phase lists its requests in ascending order. Counting into
  // offsets[c + 2] and prefix-summing leaves phase c's start in
  // offsets[c + 1], which then serves as its fill cursor; once filled,
  // offsets[c] is the start of phase c and the spare last entry goes.
  phase_offsets_.assign(as_size(h + 2), 0);
  for (int e = 0; e < count; ++e) {
    ++phase_offsets_[as_size(traffic_coloring_.color[as_size(e)] + 2)];
  }
  for (int c = 0; c < h; ++c) {
    phase_offsets_[as_size(c + 2)] += phase_offsets_[as_size(c + 1)];
  }
  phase_requests_.assign(as_size(count), 0);
  for (int e = 0; e < count; ++e) {
    const int c = traffic_coloring_.color[as_size(e)];
    phase_requests_[as_size(phase_offsets_[as_size(c + 1)]++)] = e;
  }
  phase_offsets_.pop_back();

  // At most two transmissions per request (distribute and deliver).
  h_schedule_.clear();
  h_schedule_.reserve(2 * count, h * theorem2_slots(topo_));
  for (int c = 0; c < h; ++c) {
    // By properness the phase is a partial permutation. Pad it to a
    // full one (idle sources onto unused destinations, in order) so
    // Theorem 2 applies as-is; the result is a permutation by
    // construction, so build_theorem2 runs without a bijectivity pass.
    image_.assign(as_size(n), -1);
    request_of_source_.assign(as_size(n), -1);
    destination_used_.assign(as_size(n), 0);
    for (const int e : phase_requests(c)) {
      const Request& request = requests[as_size(e)];
      image_[as_size(request.source)] = request.destination;
      request_of_source_[as_size(request.source)] = e;
      destination_used_[as_size(request.destination)] = 1;
    }
    int next_free = 0;
    for (int p = 0; p < n; ++p) {
      if (image_[as_size(p)] != -1) continue;
      while (destination_used_[as_size(next_free)] != 0) ++next_free;
      image_[as_size(p)] = next_free;
      destination_used_[as_size(next_free)] = 1;
    }
    build_theorem2(image_);

    // Dropping the padding transmissions only relaxes the optical
    // constraints, so the filtered schedule stays valid. Each kept
    // transmission is renamed from the engine's packet id (the phase
    // source) to its request id.
    for (int s = 0; s < theorem2_schedule_.slot_count(); ++s) {
      h_schedule_.begin_slot();
      for (const Transmission& t : theorem2_schedule_.slot(s)) {
        const int e = request_of_source_[as_size(t.packet)];
        if (e == -1) continue;
        h_schedule_.push(Transmission{t.source, t.destination, e});
      }
    }
  }
  return h_schedule_;
}

Span<const int> RoutingEngine::phase_requests(int phase) const {
  POPS_CHECK(phase >= 0 && phase < phase_count(),
             "phase_requests: phase out of range");
  const int lo = phase_offsets_[as_size(phase)];
  const int hi = phase_offsets_[as_size(phase + 1)];
  return Span<const int>(phase_requests_.data() + lo, as_size(hi - lo));
}

bool RoutingEngine::delivers(const FlatSchedule& schedule,
                             const Permutation& pi) {
  if (!net_.has_value()) {
    // Constructing the simulator is the one allocating step of the
    // portfolio path; it happens exactly once, on the (unbanned)
    // warm-up call.
    ScopedAllocationAllow allow;
    net_.emplace(topo_);
  }
  net_->reset();
  net_->load_permutation_traffic(pi);
  const bool delivered = net_->execute(schedule) && net_->all_delivered();
  warm_verify_ = true;
  net_->ban_steady_allocations(true);
  return delivered;
}

std::string RoutingEngine::verification_failure() const {
  if (!net_.has_value()) return "verification never ran";
  return net_->failure().empty()
             ? "schedule executed but left packets undelivered"
             : net_->failure();
}

ScratchFootprint RoutingEngine::scratch_footprint() const {
  ScratchFootprint footprint;
  footprint.units =
      h_.scratch_capacity() + h_q_.scratch_capacity() +
      colorer_.scratch_capacity() + coloring_.color.capacity() +
      fair_.color.capacity() + source_of_edge_.capacity() +
      used_of_group_.capacity() + intermediate_of_.capacity() +
      theorem2_schedule_.transmission_capacity() +
      theorem2_schedule_.slot_capacity() +
      coupler_count_.capacity() + coupler_offset_.capacity() +
      coupler_queue_.capacity() + image_seen_stamp_.capacity() +
      direct_schedule_.transmission_capacity() +
      direct_schedule_.slot_capacity() +
      (net_.has_value() ? net_->scratch_capacity() : 0) +
      traffic_.scratch_capacity() + traffic_coloring_.color.capacity() +
      phase_offsets_.capacity() + phase_requests_.capacity() +
      image_.capacity() + request_of_source_.capacity() +
      destination_used_.capacity() + h_schedule_.transmission_capacity() +
      h_schedule_.slot_capacity();
  return footprint;
}

}  // namespace pops
