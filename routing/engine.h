// RoutingEngine: all routing strategies for one fixed Topology with
// zero steady-state heap allocation.
//
// This is the only code that turns traffic into a schedule. One-shot
// callers use the free function route(topo, pi, RouteOptions{...})
// from routing/router.h; bulk single-threaded callers hold a
// RoutingEngine and call
//
//   const FlatSchedule& plan = engine.route(pi, options);
//
// per permutation; many-permutation throughput callers use
// BatchRouter::route_batch (routing/batch_router.h), which confines
// one engine to each worker thread. h-relations go through
// route_h_relation, which TrafficServer calls once per window and the
// free route_h_relation (routing/h_relation.h) wraps.
//
// Every schedule comes out of one private emit(). Its packet list
// holds one Transmission (source, destination, packet id) per packet:
// all n packets named by source for a permutation, or one phase's
// requests named by request id for an h-relation. kTheorem2 builds
// Theorem 2; kDirect and kBest first make one pass over the packets
// that finds M, the most packets on one coupler (the direct schedule's
// length), and Delta, the most packets one group sends or receives.
// kDirect then builds direct, and kBest builds only the shorter of the
// two schedules, direct on ties. Every h-relation phase takes the
// kBest path.
//
// Mei & Rizzi's Theorem 2 needs only a proper coloring of the group
// multigraph H (one edge per packet, source group to destination
// group) whose classes hold at most d packets each. Take a partial
// permutation whose busiest group sends or receives Delta packets and
// color H with Delta colors. A color is a matching of at most g
// packets, so when g <= d each batch of g colors takes two slots and a
// color names its batch and its intermediate group directly. When
// g > d, Delta < g makes one batch, and H's coloring is spread onto g
// balanced classes, at most d packets each. So the schedule has
// 2 * ceil(Delta / g) slots (one when d == 1), which is
// theorem2_slots(topology()) for a permutation. All n packets make H
// d-regular, which suits the configured backend (by default
// euler-split, graph/edge_coloring.h). Euler-split takes H as the
// packets' destination groups listed by source group
// (EdgeColorer::color_regular): a permutation's packet list is in that
// order already. H is built as a graph for alternating path, for a
// full h-relation phase not listed by source (color() sorts it), and
// when g > d, where the spread needs it. A smaller packet list makes H
// irregular, and alternating path colors it. One stable counting sort
// by batch then gathers the batches, and each batch's two slots are
// written in bulk (FlatSchedule::append_slots).
//
// The engine owns every intermediate object — the packet list, H as a
// list or a graph, the edge colorings, the batch list, the coupler
// queues of the direct builder, the verification Network and the
// schedule — and rebuilds them in place per route. Theorem 2 is
// oblivious: for a fixed POPS(d, g), H has g vertices a side and n
// edges and is d-regular, so (d, g) alone sizes every arena a
// permutation route touches, and the constructor reserves each one
// exactly, for the configured coloring backend only. So an engine is
// warm once constructed: every permutation route bans allocation on
// itself from its first call, with every backend, and no route grows
// an arena (asserted by tests that compare scratch_footprint() with
// the footprint at construction). The verification simulator is built
// later, by reserve_verification(), reserve_h_relation() or the first
// route that verifies. Verified permutation routes (every kBest route)
// and every route_h_relation load the packet list on it, execute
// schedule() and abort unless every packet arrives, naming the broken
// rule or the stranded packet; unverified permutation routes never
// touch it.
//
// The permutation routes and route_h_relation share one packet list and one
// schedule: schedule() is the last schedule any route built. An h-relation's
// arenas grow with its request count R and degree h alone: every phase runs on
// the constructor's arenas plus the alternating-path tables of the traffic
// coloring, n * h a side, which hold the g * d any phase's H needs, plus H as a
// graph where the constructor sized only its list, plus the simulator's records
// for R packets. reserve_h_relation(R, h) sizes them, and then every relation
// within those bounds routes and verifies allocation-free, whichever
// construction its phases take.
#pragma once

#include <iosfwd>
#include <optional>

#include "graph/bipartite_multigraph.h"
#include "graph/edge_coloring.h"
#include "perm/permutation.h"
#include "pops/flat_plan.h"
#include "pops/network.h"
#include "routing/router.h"
#include "support/thread_annotations.h"

namespace pops {

/// Aggregate capacity of every scratch arena the engine owns. Two
/// equal footprints around a route_* call mean the call did not grow
/// (= reallocate) any engine-owned storage.
struct ScratchFootprint {
  std::size_t units = 0;
};

inline bool operator==(const ScratchFootprint& a,
                       const ScratchFootprint& b) {
  return a.units == b.units;
}
inline bool operator!=(const ScratchFootprint& a,
                       const ScratchFootprint& b) {
  return !(a == b);
}

/// "<units> units" — so EXPECT_EQ on two footprints prints both
/// values on mismatch instead of just "footprints differ".
std::ostream& operator<<(std::ostream& os,
                         const ScratchFootprint& footprint);

// Thread-compatible, not thread-safe: one engine per thread (the
// BatchRouter discipline); see support/thread_annotations.h.
class POPS_THREAD_COMPATIBLE RoutingEngine {
 public:
  explicit RoutingEngine(const Topology& topo,
                         const RouterOptions& options = {});

  const Topology& topology() const { return topo_; }
  const RouterOptions& options() const { return options_; }

  /// Unified entry point: routes pi with options.strategy and returns
  /// the schedule. kTheorem2 builds Theorem 2, exactly
  /// theorem2_slots(topology()) slots; kDirect builds direct, exactly
  /// M slots, M the most packets on one coupler; kBest finds M in one
  /// pass and builds only the shorter of the two, direct on ties.
  /// options.verify executes the schedule on the internal strict
  /// simulator and aborts on any violation; kBest always verifies the
  /// schedule it returns. The coloring backend is fixed at
  /// construction (RouterOptions). Returns schedule(), valid until the
  /// next route of any kind on this engine.
  ///
  /// Allocation-free from the first call, under a ScopedAllocationBan
  /// of its own; the first verifying route builds the simulator under
  /// an allowance.
  const FlatSchedule& route(const Permutation& pi,
                            const RouteOptions& options = {});

  /// Builder that produced the last permutation schedule: kDirect or
  /// kTheorem2, the winner when kBest was requested.
  RouteStrategy last_strategy() const { return last_strategy_; }

  /// route(pi, {RouteStrategy::kTheorem2}). The returned reference
  /// stays valid until the next route of any kind on this engine.
  const FlatSchedule& route_permutation(const Permutation& pi);

  /// Same schedule for a permutation given as its raw image array
  /// (packet of processor i goes to images[i]). The engine validates
  /// bijectivity into its own stamped scratch, so bulk callers that
  /// rebuild an image buffer per call route with zero steady-state
  /// allocation and no Permutation construction.
  const FlatSchedule& route_permutation(Span<const int> images);

  /// route(pi, {RouteStrategy::kDirect}): the greedy direct
  /// (no-intermediate) schedule. Every packet crosses in one hop, and
  /// slot t carries the t-th pending packet of every coupler queue. In
  /// a permutation the sources and destinations are pairwise distinct,
  /// so the coupler is the only contended resource and the schedule
  /// takes exactly M slots. That is optimal among direct schedules and
  /// exact (one slot) on demand-1 traffic.
  ///
  /// The crossover against Theorem 2's flat 2 * ceil(d / g):
  ///   * random traffic, d >> g: max demand concentrates near d/g, so
  ///     direct wins by about a factor 2;
  ///   * adversarial group-block traffic (vector reversal, group
  ///     rotation): all d packets of a group share one coupler, so
  ///     direct degrades to d slots, worse by a factor g/2.
  const FlatSchedule& route_direct(const Permutation& pi);
  /// M of the last kDirect or kBest permutation route, whichever
  /// schedule it built; h-relation phases leave it alone.
  int direct_max_demand() const { return direct_max_demand_; }

  /// Routes an h-relation: every processor sends and receives at most
  /// h of the requests. König colors the traffic multigraph (one edge
  /// per request) with h colors; each color class is a partial
  /// permutation, one phase, routed on its own packets named by request
  /// id. One pass over a phase finds M, the most of its packets on one
  /// coupler, and Delta, the most one group sends or receives; the
  /// phase then gets only the shorter schedule, direct (M slots, which
  /// wins ties) or Theorem 2 (2 * ceil(Delta / g)), by the kBest rule.
  /// Phase c occupies slots [phase_slot_offsets()[c],
  /// phase_slot_offsets()[c + 1]), at most theorem2_slots(topology()).
  ///
  /// Aborts on a request outside the topology, on more than
  /// INT_MAX / 2 requests, and, with the simulator's diagnostic, unless
  /// the whole schedule delivers every request on the internal strict
  /// simulator. Allocation-free for a relation within a
  /// reserve_h_relation call's bounds; no ScopedAllocationBan is armed
  /// here, because those bounds are the caller's, so callers that
  /// reserve arm one (the TrafficServer's window ban). Returns
  /// schedule(); it and the phase accessors stay valid until the next
  /// route of any kind, and a permutation route empties the phase view.
  const FlatSchedule& route_h_relation(Span<const Request> requests);
  /// Reserves exactly what route_h_relation touches beyond the
  /// constructor's arenas for at most `requests` requests of degree at
  /// most `degree` (see the header comment), the simulator included:
  /// every such relation then routes and verifies allocation-free.
  /// Routes nothing; aborts, as route_h_relation does, on more than
  /// INT_MAX / 2 requests.
  void reserve_h_relation(int requests, int degree);
  /// Builds the verification simulator now, sized for permutation
  /// traffic, so that no later verifying route builds it: with it, a
  /// verifying route (and every kBest route) touches only arenas that
  /// exist. Routes nothing. The first route that verifies calls it
  /// itself when no one has.
  void reserve_verification();
  /// The last schedule any route built: a permutation's, named by
  /// source, or the last route_h_relation's, named by request id.
  /// Empty before the first route.
  const FlatSchedule& schedule() const { return schedule_; }
  /// Phases of the last route_h_relation: its degree h. 0 before the
  /// first and after a permutation route.
  int phase_count() const { return traffic_coloring_.num_colors; }
  /// Packets of phase `phase` of the last route_h_relation, in
  /// ascending request id: each names its request's source and
  /// destination, and its packet id is the request id.
  Span<const Transmission> phase_packets(int phase) const;
  /// h + 1 slot offsets into schedule(): phase c occupies slots
  /// [offsets[c], offsets[c + 1]). Empty before the first
  /// route_h_relation and after a permutation route.
  Span<const int> phase_slot_offsets() const { return phase_slot_offsets_; }

  ScratchFootprint scratch_footprint() const;

 private:
  /// One pass over a packet list: the most packets one group sends or
  /// receives (the degree of H) and the most packets on one coupler
  /// (the direct schedule's length). It leaves the per-coupler counts
  /// in coupler_count_ for build_direct.
  struct Load {
    int group_degree;
    int max_demand;
  };
  Load measure(Span<const Transmission> packets);
  /// Appends the schedule `strategy` names for `packets`, which must
  /// have pairwise distinct sources and pairwise distinct destinations,
  /// to `out`, and returns the builder that ran. kDirect and kBest
  /// measure() first and leave M in `max_demand`; kBest then builds
  /// direct when M <= 2 * ceil(Delta / g), Theorem 2's length. This is
  /// the only choice between the two builders.
  RouteStrategy emit(Span<const Transmission> packets,
                     RouteStrategy strategy, FlatSchedule& out,
                     int& max_demand);
  /// The two builders. build_direct reads the counts measure(packets)
  /// left.
  void build_direct(Span<const Transmission> packets, int max_demand,
                    FlatSchedule& out);
  void build_theorem2(Span<const Transmission> packets, FlatSchedule& out);
  /// Colors H, one edge per packet from its source group to its
  /// destination group (edge id = index in `packets`), into coloring_:
  /// all n packets with the configured backend, fewer with alternating
  /// path. A full list by source goes to euler-split as h_list_ when
  /// lists_h(), and every other list as the graph h_.
  void color_h(Span<const Transmission> packets);
  /// True when a full H listed by source goes to the colorer as a
  /// sorted list: with euler-split, unless g > d, where spread() needs
  /// the graph.
  bool lists_h() const;
  /// The permutation path: load_permutation fills packets_ with all n
  /// packets, named by source, and empties the phase view;
  /// emit_permutation emits them into schedule_ and records the
  /// builder and M.
  void load_permutation(Span<const int> images);
  void emit_permutation(RouteStrategy strategy);
  /// Loads packets_ (a permutation's n packets or an h-relation's
  /// requests) on the internal simulator, executes schedule_ and aborts
  /// unless it delivers every packet. The abort names the route (a
  /// permutation's strategy, or a window) and carries the simulator's
  /// verdict: the broken rule (Network::failure()) or the stranded
  /// packet (Network::stranded()). Builds the simulator on its first
  /// call, under an allowance.
  void verify_or_abort();

  Topology topo_;
  RouterOptions options_;

  // --- Shared by both builders and by every route ---
  // The packet list: a permutation's n packets, or an h-relation's
  // requests bucketed by phase (CSR), phase c holding
  // packets_[phase_offsets_[c] .. phase_offsets_[c + 1]).
  std::vector<Transmission> packets_;
  std::vector<int> group_load_;  // sends per group, then receives

  // --- Theorem 2 scratch ---
  BipartiteMultigraph h_;  // the packet multigraph H (g x g)
  // A full H listed by source group, for EdgeColorer::color_regular.
  std::vector<SortedEdge> h_list_;
  EdgeColorer colorer_;
  // H's coloring by packet index: Delta colors, or g classes once
  // spread (g > d).
  EdgeColoring coloring_;
  std::vector<int> batch_packets_;  // packet indices, batch by batch
  std::vector<int> batch_offsets_;  // ceil(classes / g) + 2 entries
  std::vector<int> used_of_group_;  // intermediates taken per group
  // The last schedule any route built. A permutation's holds at most
  // 2n transmissions over max(theorem2_slots, d) slots.
  FlatSchedule schedule_;
  // Bijectivity check of the Span overload: seen[v] is valid only when
  // stamped with the current validation epoch, so no clearing pass.
  std::vector<long long> image_seen_stamp_;
  long long image_epoch_ = 0;

  // --- Direct-router scratch (CSR coupler queues) ---
  std::vector<int> coupler_count_;   // packets per coupler
  std::vector<int> coupler_offset_;  // prefix sums, coupler_count()+1
  std::vector<int> coupler_queue_;   // packet indices by coupler
  int direct_max_demand_ = 0;

  // --- Verification ---
  // Built by reserve_verification(), reserve_h_relation() or the first
  // route that verifies: the simulator's records, buckets and stamp
  // arrays are a large arena, and unverified routes never touch them.
  std::optional<Network> net_;
  RouteStrategy last_strategy_ = RouteStrategy::kTheorem2;

  // --- h-relation scratch (sized by reserve_h_relation) ---
  // Window traffic is colored by colorer_ too, before any phase is
  // routed: the colorer's tables are scratch, and the coloring itself
  // lands in traffic_coloring_.
  BipartiteMultigraph traffic_{0, 0};  // n x n, edge id == request id
  EdgeColoring traffic_coloring_;      // h colors, one per phase
  std::vector<int> phase_offsets_;       // h + 1 entries into packets_
  std::vector<int> phase_slot_offsets_;  // h + 1 entries into schedule_
};

}  // namespace pops
