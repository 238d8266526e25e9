#include "routing/engine.h"

#include <algorithm>
#include <limits>

#include "support/alloc_guard.h"

#include <ostream>

namespace pops {

std::ostream& operator<<(std::ostream& os,
                         const ScratchFootprint& footprint) {
  return os << footprint.units << " units";
}

RoutingEngine::RoutingEngine(const Topology& topo,
                             const RouterOptions& options)
    : topo_(topo),
      options_(options),
      h_(topo.g(), topo.g()) {
  const int n = topo_.processor_count();
  const int d = topo_.d();
  const int g = topo_.g();
  // A schedule holds up to two transmissions per packet, counted in
  // ints.
  POPS_CHECK(n <= std::numeric_limits<int>::max() / 2,
             "RoutingEngine: POPS(d, g) needs 2 * d * g to fit an int");
  // Every arena a permutation route touches, sized exactly from (d, g),
  // so every route bans allocation from its first call.
  packets_.reserve(as_size(n));
  group_load_.reserve(as_size(2 * g));
  coupler_count_.reserve(as_size(topo_.coupler_count()));
  coupler_offset_.reserve(as_size(topo_.coupler_count() + 1));
  coupler_queue_.reserve(as_size(n));
  if (d > 1) {
    // Theorem 2 colors H, d-regular on g + g vertices with n edges,
    // with the configured backend, batches its packets, and spreads
    // the coloring onto g classes when g > d. Euler-split takes H as a
    // sorted list, every other backend as a graph. With d == 1 it sends
    // every packet in one slot and touches none of this.
    if (options_.coloring == ColoringAlgorithm::kEulerSplit) {
      h_list_.reserve(as_size(n));
    } else {
      h_.reserve_edges(n);
    }
    coloring_.color.reserve(as_size(n));
    colorer_.reserve(g, d, options_.coloring);
    if (g > d) colorer_.reserve_spread(g);
    batch_packets_.reserve(as_size(n));
    batch_offsets_.reserve(as_size((d + g - 1) / g + 2));
    used_of_group_.reserve(as_size(g));
  }
  // Theorem 2 sends every packet twice; a direct schedule sends it
  // once, and one coupler carries at most the d packets of one group.
  schedule_.reserve(2 * n, std::max(theorem2_slots(topo_), d));
  seen_.assign(as_size(n), Seen{0, 0});
}

const FlatSchedule& RoutingEngine::route(const Permutation& pi,
                                         const RouteOptions& options) {
  const RouteStrategy strategy = options.strategy;
  POPS_CHECK(strategy == RouteStrategy::kDirect ||
                 strategy == RouteStrategy::kTheorem2 ||
                 strategy == RouteStrategy::kBest,
             "route: unknown RouteStrategy");
  ScopedAllocationBan ban("RoutingEngine::route");
  // The Permutation constructor already validated bijectivity.
  load_permutation(Span<const int>(pi.images()));
  emit_permutation(strategy);
  if (strategy == RouteStrategy::kBest) verify_or_abort();
  return schedule_;
}

const FlatSchedule& RoutingEngine::route_permutation(
    const Permutation& pi) {
  return route(pi, {RouteStrategy::kTheorem2});
}

const FlatSchedule& RoutingEngine::route_permutation(
    Span<const int> images) {
  ScopedAllocationBan ban("RoutingEngine::route_permutation");
  const int n = topo_.processor_count();
  POPS_CHECK(images.count() == n,
             "route_permutation: image array does not fit the topology");
  const long long epoch = ++seen_epoch_;
  for (int i = 0; i < n; ++i) {
    const int v = images[as_size(i)];
    POPS_CHECK(v >= 0 && v < n,
               "route_permutation: image out of range");
    POPS_CHECK(seen_[as_size(v)].destination != epoch,
               "route_permutation: image array is not a permutation");
    seen_[as_size(v)].destination = epoch;
  }
  load_permutation(images);
  emit_permutation(RouteStrategy::kTheorem2);
  return schedule_;
}

const FlatSchedule& RoutingEngine::route_direct(const Permutation& pi) {
  return route(pi, {RouteStrategy::kDirect});
}

void RoutingEngine::load_permutation(Span<const int> images) {
  const int n = topo_.processor_count();
  POPS_CHECK(images.count() == n,
             "route: permutation does not fit the topology");
  // The packets and the schedule of the last h-relation are about to be
  // overwritten, so its phases go too.
  relation_degree_ = 0;
  phase_slot_offsets_.clear();
  packets_.resize(as_size(n));
  Transmission* packet = packets_.data();
  const int* image = images.data();
  for (int source = 0; source < n; ++source) {
    packet[source] = Transmission{source, image[source], source};
  }
}

void RoutingEngine::emit_permutation(RouteStrategy strategy) {
  schedule_.clear();
  last_strategy_ = emit(packets_, strategy, schedule_, direct_max_demand_);
  POPS_CHECK(last_strategy_ == RouteStrategy::kDirect ||
                 schedule_.slot_count() == theorem2_slots(topo_),
             "Theorem 2 schedule has the wrong number of slots");
}

RouteStrategy RoutingEngine::emit(Span<const Transmission> packets,
                                  RouteStrategy strategy, FlatSchedule& out,
                                  int& max_demand) {
  if (strategy != RouteStrategy::kTheorem2) {
    const Load load = measure(packets);
    max_demand = load.max_demand;
    const int g = topo_.g();
    const int theorem2 = 2 * ((load.group_degree + g - 1) / g);
    // Direct wins ties: same length, one hop per packet and no relay
    // buffering.
    if (strategy == RouteStrategy::kDirect || max_demand <= theorem2) {
      build_direct(packets, max_demand, out);
      return RouteStrategy::kDirect;
    }
  }
  build_theorem2(packets, out);
  return RouteStrategy::kTheorem2;
}

RoutingEngine::Load RoutingEngine::measure(
    Span<const Transmission> packets) {
  const int g = topo_.g();
  coupler_count_.assign(as_size(topo_.coupler_count()), 0);
  group_load_.assign(as_size(2 * g), 0);
  int* count = coupler_count_.data();
  int* sends = group_load_.data();
  int* receives = sends + g;
  int degree = 0;
  int demand = 0;
  for (const Transmission& packet : packets) {
    const int from = topo_.group_of(packet.source);
    const int to = topo_.group_of(packet.destination);
    degree = std::max(degree, std::max(++sends[from], ++receives[to]));
    demand = std::max(demand, ++count[topo_.coupler(to, from)]);
  }
  return Load{degree, demand};
}

void RoutingEngine::build_direct(Span<const Transmission> packets,
                                 int max_demand, FlatSchedule& out) {
  const int couplers = topo_.coupler_count();
  const int count = packets.count();
  const Transmission* packet = packets.data();

  // Bucket the packets per coupler (CSR). Packets are enumerated in
  // order, so each bucket lists its packets in packet-list order.
  coupler_offset_.resize(as_size(couplers + 1));
  coupler_queue_.resize(as_size(count));
  int* offset = coupler_offset_.data();
  int* cursor = coupler_count_.data();  // the counts become fill cursors
  int* queue = coupler_queue_.data();
  offset[0] = 0;
  for (int c = 0; c < couplers; ++c) {
    offset[c + 1] = offset[c] + cursor[c];
    cursor[c] = offset[c];
  }
  for (int i = 0; i < count; ++i) {
    const int coupler = topo_.coupler(topo_.group_of(packet[i].destination),
                                      topo_.group_of(packet[i].source));
    queue[cursor[coupler]++] = i;
  }
  // The cursors are spent: the same storage now lists the couplers that
  // still hold packets, in coupler order.
  int* active = cursor;
  int active_count = 0;
  for (int c = 0; c < couplers; ++c) {
    if (offset[c + 1] > offset[c]) active[active_count++] = c;
  }

  // Slot t drains the t-th packet of every non-empty bucket, and a
  // bucket leaves the list once drained. Distinct couplers per slot by
  // construction; distinct transmitters and receivers because the
  // packets' sources are pairwise distinct, and so are their
  // destinations.
  for (int slot = 0; slot < max_demand; ++slot) {
    Transmission* sent = out.append_slots(1, active_count);
    int kept = 0;
    for (int a = 0; a < active_count; ++a) {
      const int c = active[a];
      sent[a] = packet[queue[offset[c] + slot]];
      if (offset[c + 1] - offset[c] > slot + 1) active[kept++] = c;
    }
    active_count = kept;
  }
}

bool RoutingEngine::color_h(Span<const Transmission> packets) {
  const int d = topo_.d();
  const int g = topo_.g();
  const int count = packets.count();
  const Transmission* packet = packets.data();
  const bool full = count == topo_.processor_count();
  if (full && options_.coloring == ColoringAlgorithm::kEulerSplit) {
    // All n packets make H d-regular: source group u's d packets take
    // positions [u * d, (u + 1) * d) in list order. A list by source
    // (every permutation's) puts packet i at position i, so it is
    // already sorted, and its ids are its positions, as spread() needs.
    h_list_.resize(as_size(count));
    SortedEdge* list = h_list_.data();
    bool by_source = true;
    for (int i = 0; i < count; ++i) {
      list[i] = SortedEdge{i, topo_.group_of(packet[i].destination)};
      by_source &= packet[i].source == i;
    }
    if (by_source) {
      colorer_.color_regular(h_list_, d, coloring_);
      return true;
    }
  }
  // The graph: one edge per packet, so the edge id is the packet's
  // index in the list. A full list not by source (an h-relation phase,
  // in request order) is sorted by color(); fewer than n packets make
  // H irregular, and alternating path colors it without padding.
  h_.reset(g, g);
  for (int i = 0; i < count; ++i) {
    h_.add_edge(topo_.group_of(packet[i].source),
                topo_.group_of(packet[i].destination));
  }
  const ColoringAlgorithm backend =
      full ? options_.coloring : ColoringAlgorithm::kAlternatingPath;
  colorer_.color(h_, backend, coloring_);
  return false;
}

void RoutingEngine::build_theorem2(Span<const Transmission> packets,
                                   FlatSchedule& out) {
  const int d = topo_.d();
  const int g = topo_.g();
  const int count = packets.count();
  const Transmission* packet = packets.data();

  if (d == 1) {
    // One slot: processor == group, so the packets' sources and
    // destinations are pairwise distinct and every coupler carries at
    // most one packet.
    std::copy(packet, packet + count, out.append_slots(1, count));
    return;
  }

  const bool listed = color_h(packets);
  POPS_CHECK(coloring_.num_colors <= d,
             "Theorem 2: H must be d-edge-colorable");

  // Fair distribution. Batch q takes the classes [q * g, q * g + g),
  // and class c names intermediate group c - q * g; properness gives
  // the two distinctness properties. Each color of H is a matching of
  // at most g packets, so when g <= d the colors themselves fit the d
  // receivers of a group. When g > d there is one batch (Delta <= d <
  // g), and H's coloring, spread balanced onto g classes from whichever
  // form H took, puts at most ceil(count / g) <= d packets on each.
  if (g > d && listed) {
    colorer_.spread(h_list_, d, g, coloring_);
  } else if (g > d) {
    colorer_.spread(h_, g, coloring_);
  }
  const int* color = coloring_.color.data();
  const int batches = (coloring_.num_colors + g - 1) / g;

  // Every batch's packets in list order, batch q at batch_packets_
  // [offset[q], offset[q + 1]): one stable counting sort by batch, as
  // route_h_relation buckets its phases. Counting into offset[q + 2]
  // and prefix-summing leaves batch q's start in offset[q + 1], which
  // then serves as its fill cursor and ends as the start of batch
  // q + 1. One batch is the whole list, and is written as such: the
  // sort would run every packet through one counter, two serial chains
  // of n increments with a divide each, timed (one pinned core) at
  // 6.1 us against 0.6 us for the plain fill on a 32/32 list, whose
  // whole route takes about 30 us.
  batch_offsets_.assign(as_size(batches + 2), 0);
  batch_packets_.resize(as_size(count));
  int* offset = batch_offsets_.data();
  int* batch = batch_packets_.data();
  if (batches == 1) {
    for (int i = 0; i < count; ++i) batch[i] = i;
    offset[1] = count;
  } else {
    for (int i = 0; i < count; ++i) ++offset[color[i] / g + 2];
    for (int q = 0; q < batches; ++q) offset[q + 2] += offset[q + 1];
    for (int i = 0; i < count; ++i) batch[offset[color[i] / g + 1]++] = i;
  }

  for (int q = 0; q < batches; ++q) {
    const int lo = q * g;
    const int* in_batch = batch + offset[q];
    const int size = offset[q + 1] - offset[q];
    used_of_group_.assign(as_size(g), 0);
    int* used = used_of_group_.data();
    // Slot 2q distributes the batch, slot 2q + 1 delivers it.
    Transmission* distribute = out.append_slots(2, size);
    Transmission* deliver = distribute + size;
    for (int k = 0; k < size; ++k) {
      const Transmission& p = packet[in_batch[k]];
      const int mid_group = color[in_batch[k]] - lo;
      const int mid_index = used[mid_group]++;
      POPS_CHECK(mid_index < d,
                 "fair distribution overfilled an intermediate group");
      const int mid = topo_.processor(mid_group, mid_index);
      distribute[k] = Transmission{p.source, mid, p.packet};
      deliver[k] = Transmission{mid, p.destination, p.packet};
    }
  }
}

namespace {

void check_request(const Request& request, int n) {
  POPS_CHECK(request.source >= 0 && request.source < n,
             "route_h_relation: request source out of range");
  POPS_CHECK(request.destination >= 0 && request.destination < n,
             "route_h_relation: request destination out of range");
}

}  // namespace

const FlatSchedule& RoutingEngine::route_h_relation(
    Span<const Request> requests) {
  // The schedule holds at most two transmissions per request, counted
  // in ints.
  POPS_CHECK(requests.size() <=
                 as_size(std::numeric_limits<int>::max() / 2),
             "route_h_relation: more than INT_MAX / 2 requests");
  if (!load_one_phase(requests)) load_konig_phases(requests);

  schedule_.clear();
  phase_slot_offsets_.assign(1, 0);
  int phase_demand = 0;  // direct_max_demand() reports permutations only
  for (int c = 0; c < relation_degree_; ++c) {
    // The phase is a partial permutation (by properness, or by the
    // degree check), so both builders take its packets as they are.
    emit(phase_packets(c), RouteStrategy::kBest, schedule_, phase_demand);
    phase_slot_offsets_.push_back(schedule_.slot_count());
  }
  verify_or_abort();
  return schedule_;
}

bool RoutingEngine::load_one_phase(Span<const Request> requests) {
  const int n = topo_.processor_count();
  const int count = requests.count();
  packets_.resize(as_size(count));
  Transmission* packet = packets_.data();
  Seen* seen = seen_.data();
  const long long epoch = ++seen_epoch_;
  for (int e = 0; e < count; ++e) {
    const Request& request = requests[as_size(e)];
    check_request(request, n);
    if (seen[request.source].source == epoch) return false;
    if (seen[request.destination].destination == epoch) return false;
    seen[request.source].source = epoch;
    seen[request.destination].destination = epoch;
    packet[e] = Transmission{request.source, request.destination, e};
  }
  // Degree at most 1: König would give every request its one color, and
  // its stable bucketing would keep them in request order.
  relation_degree_ = count > 0 ? 1 : 0;
  phase_offsets_.assign(1, 0);
  if (count > 0) phase_offsets_.push_back(count);
  return true;
}

void RoutingEngine::load_konig_phases(Span<const Request> requests) {
  const int n = topo_.processor_count();
  const int count = requests.count();

  // The traffic multigraph: one edge per request, processor to
  // processor, so the edge id is the request id.
  traffic_.reset(n, n);
  for (const Request& request : requests) {
    check_request(request, n);
    traffic_.add_edge(request.source, request.destination);
  }
  // König: h colors, h the maximum degree. The traffic is irregular,
  // so alternating path colors it directly, where a divide-and-conquer
  // backend would first pad it to h-regular on n + n vertices. This
  // sizes the alternating-path tables for n * h slots a side, at least
  // the g * d an irregular phase H can need.
  colorer_.color(traffic_, ColoringAlgorithm::kAlternatingPath,
                 traffic_coloring_);
  const int h = traffic_coloring_.num_colors;
  relation_degree_ = h;

  // Bucket the requests by phase with a stable counting sort, so every
  // phase lists its packets in ascending request id. Counting into
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
  packets_.resize(as_size(count));
  for (int e = 0; e < count; ++e) {
    const int c = traffic_coloring_.color[as_size(e)];
    const Request& request = requests[as_size(e)];
    packets_[as_size(phase_offsets_[as_size(c + 1)]++)] =
        Transmission{request.source, request.destination, e};
  }
  phase_offsets_.pop_back();
}

void RoutingEngine::reserve_h_relation(int requests, int degree) {
  // Two transmissions per request, counted in ints.
  POPS_CHECK(requests <= std::numeric_limits<int>::max() / 2,
             "reserve_h_relation: more than INT_MAX / 2 requests");
  const int n = topo_.processor_count();
  const int d = topo_.d();
  if (d > 1) {
    // A phase's H is a graph, unless it is a full phase listed by
    // source, even where the constructor only sized a list for the
    // permutation's; an irregular one (g vertices a side, degree at
    // most d) goes to alternating path.
    h_.reserve_edges(std::min(requests, n));
    colorer_.reserve(topo_.g(), d, ColoringAlgorithm::kAlternatingPath);
  }
  if (degree > 1) {
    // Only a relation that repeats a source or a destination builds and
    // colors the traffic multigraph: n * h slots a side.
    traffic_.reset(n, n);
    traffic_.reserve_edges(requests);
    traffic_coloring_.color.reserve(as_size(requests));
    colorer_.reserve(n, degree, ColoringAlgorithm::kAlternatingPath);
  }
  phase_offsets_.reserve(as_size(degree) + 2);
  phase_slot_offsets_.reserve(as_size(degree) + 1);
  packets_.reserve(as_size(requests));
  // A phase takes at most theorem2_slots slots, and a phase of k
  // packets at most k (direct does, and Theorem 2 runs only if shorter).
  const long long max_slots = std::min<long long>(
      static_cast<long long>(degree) * theorem2_slots(topo_), requests);
  schedule_.reserve(2 * requests, static_cast<int>(max_slots));
  reserve_verification();
  net_->reserve_packets(requests);
}

Span<const Transmission> RoutingEngine::phase_packets(int phase) const {
  POPS_CHECK(phase >= 0 && phase < phase_count(),
             "phase_packets: phase out of range");
  const int lo = phase_offsets_[as_size(phase)];
  const int hi = phase_offsets_[as_size(phase + 1)];
  return Span<const Transmission>(packets_.data() + lo, as_size(hi - lo));
}

void RoutingEngine::reserve_verification() {
  if (!net_.has_value()) net_.emplace(topo_);
}

void RoutingEngine::verify_or_abort() {
  if (!net_.has_value()) {
    // Constructing the simulator, which sizes it for permutation
    // traffic, is the one allocating step of the verify path; it
    // happens exactly once.
    ScopedAllocationAllow allow;
    reserve_verification();
  }
  if (net_->delivers(packets_, schedule_)) return;
  // Cold failure path: composing the diagnostic allocates, and the
  // abort must name the broken schedule, not trip the guard.
  ScopedAllocationAllow allow;
  // An h-relation's phases each had a strategy, so a window names none.
  // Only route_h_relation fills the phase view.
  const std::string route =
      phase_slot_offsets_.empty()
          ? "route: " + to_string(last_strategy_) + " schedule"
          : "route_h_relation: window";
  POPS_CHECK(false, str_cat(route, " failed verification: ",
                            net_->ok() ? net_->stranded() : net_->failure()));
}

ScratchFootprint RoutingEngine::scratch_footprint() const {
  ScratchFootprint footprint;
  footprint.units =
      packets_.capacity() + group_load_.capacity() + h_.scratch_capacity() +
      h_list_.capacity() + colorer_.scratch_capacity() +
      coloring_.color.capacity() + batch_packets_.capacity() +
      batch_offsets_.capacity() + used_of_group_.capacity() +
      schedule_.transmission_capacity() +
      schedule_.slot_capacity() + coupler_count_.capacity() +
      coupler_offset_.capacity() + coupler_queue_.capacity() +
      seen_.capacity() +
      (net_.has_value() ? net_->scratch_capacity() : 0) +
      traffic_.scratch_capacity() + traffic_coloring_.color.capacity() +
      phase_offsets_.capacity() + phase_slot_offsets_.capacity();
  return footprint;
}

}  // namespace pops
