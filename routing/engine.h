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
// one warm engine to each worker thread. h-relations go through
// route_h_relation, which TrafficServer calls once per window and the
// free route_h_relation (routing/h_relation.h) wraps.
//
// Mei & Rizzi's Theorem 2 construction is oblivious and shape-static
// for fixed (d, g): H is always d-regular on g + g vertices with
// exactly n = d * g edges, every batch multigraph H_q has exactly
// g * batch_width edges, and the schedule always has
// theorem2_slots(topo) slots of n total transmissions per slot pair.
// The engine therefore owns every intermediate object — the packet
// multigraphs, the edge colorings, the fair-distribution scratch, the
// coupler queues of the direct router, the verification Network of the
// portfolio, and the emitted FlatSchedules — and rebuilds them in
// place per permutation. Routing performs no heap allocation at all
// after one warm-up call per strategy (asserted by tests that compare
// scratch_footprint() across calls) with every coloring backend: the
// alternating-path backend runs on flat slot tables, and the
// divide-and-conquer backends run iteratively over index ranges of
// one padded edge array inside EdgeColorer, so none of them builds
// transient subgraphs.
//
// H is colored once per route, by default with euler-split: H arrives
// d-regular and sorted by source group, so the backend neither pads
// nor sorts it, and for power-of-two d it only runs position-paired
// Euler splits (graph/edge_coloring.h).
//
// An h-relation has no fixed shape: its arrays grow with the request
// count and the degree h. They stay empty until the first
// route_h_relation call, then keep the capacity of the largest
// relation routed so far, so a later relation no larger than that one
// in both respects allocates nothing.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

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
std::string to_string(const ScratchFootprint& footprint);
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
  /// the schedule. options.verify executes the schedule on the
  /// internal strict simulator and aborts on any violation (kBest
  /// always verifies). The coloring backend is fixed at construction
  /// (RouterOptions). The returned reference stays valid until the
  /// next route call on this engine.
  const FlatSchedule& route(const Permutation& pi,
                            const RouteOptions& options = {});

  /// Strategy that produced the last route() or route_best() schedule
  /// — the concrete winner (kDirect or kTheorem2) when kBest was
  /// requested.
  RouteStrategy last_strategy() const { return last_strategy_; }

  /// Theorem 2 schedule for pi: exactly theorem2_slots(topology())
  /// slots. The returned reference (and intermediate_of()) stays valid
  /// until the next route_* call on this engine.
  const FlatSchedule& route_permutation(const Permutation& pi);

  /// Same schedule for a permutation given as its raw image array
  /// (packet of processor i goes to images[i]). The engine validates
  /// bijectivity into its own stamped scratch, so bulk callers that
  /// rebuild an image buffer per call route with zero steady-state
  /// allocation and no Permutation construction.
  const FlatSchedule& route_permutation(Span<const int> images);

  /// Intermediate processor of each source's packet in the last
  /// route_permutation schedule (the source itself when the packet was
  /// routed directly, as in the d == 1 case).
  Span<const int> intermediate_of() const { return intermediate_of_; }

  /// Greedy direct (no-intermediate) schedule: every packet crosses in
  /// one hop, and slot t carries the t-th pending packet of every
  /// coupler queue. In a permutation the sources and destinations are
  /// pairwise distinct, so the coupler is the only contended resource
  /// and the schedule takes exactly max-demand slots, where max demand
  /// is the largest number of packets sharing one coupler. That is
  /// optimal among direct schedules and exact (one slot) on demand-1
  /// traffic.
  ///
  /// The crossover against Theorem 2's flat 2 * ceil(d / g):
  ///   * random traffic, d >> g: max demand concentrates near d/g, so
  ///     direct wins by about a factor 2;
  ///   * adversarial group-block traffic (vector reversal, group
  ///     rotation): all d packets of a group share one coupler, so
  ///     direct degrades to d slots, worse by a factor g/2.
  const FlatSchedule& route_direct(const Permutation& pi);
  int direct_max_demand() const { return direct_max_demand_; }

  /// Portfolio: routes pi with both strategies, executes both
  /// schedules on the engine's internal strict simulator (aborting on
  /// any violation — the engine never hands out an unverified
  /// portfolio plan), and returns the shorter one. Ties go to direct.
  const FlatSchedule& route_best(const Permutation& pi);
  int direct_slot_count() const { return direct_schedule_.slot_count(); }
  int theorem2_slot_count() const {
    return theorem2_schedule_.slot_count();
  }

  /// Routes an h-relation: every processor sends and receives at most
  /// h of the requests. The traffic multigraph (one edge per request)
  /// has maximum degree h, so König colors it with h colors; each
  /// color class is a partial permutation, one phase. Each phase is
  /// padded to a full permutation (idle sources onto unused
  /// destinations, in order) and routed by Theorem 2. The returned
  /// schedule keeps only the real packets, named by request id:
  /// h * theorem2_slots(topology()) slots, phase c in slots
  /// [c * theorem2_slots, (c + 1) * theorem2_slots).
  ///
  /// Allocation-free once the engine has routed a relation with at
  /// least as many requests and at least the same degree (see the
  /// header comment). No ScopedAllocationBan is armed here, because
  /// the bound depends on the relation rather than on the topology;
  /// callers that know their largest relation arm one (the
  /// TrafficServer's window ban). The returned reference, phase_count()
  /// and phase_requests() stay valid until the next route_h_relation
  /// call; the permutation routes do not touch them.
  const FlatSchedule& route_h_relation(Span<const Request> requests);
  /// The schedule of the last route_h_relation (empty before the
  /// first).
  const FlatSchedule& h_relation_schedule() const { return h_schedule_; }
  /// Phases of the last route_h_relation: its degree h.
  int phase_count() const { return traffic_coloring_.num_colors; }
  /// Request ids of phase `phase` of the last route_h_relation, in
  /// ascending order.
  Span<const int> phase_requests(int phase) const;

  ScratchFootprint scratch_footprint() const;

 private:
  void build_theorem2(Span<const int> images);
  void build_direct(const Permutation& pi);
  /// Executes `schedule` on the internal simulator under permutation
  /// traffic pi; true iff every packet was delivered. Allocation-free
  /// once the simulator is warm.
  bool delivers(const FlatSchedule& schedule, const Permutation& pi);
  /// Aborts with the simulator's diagnostic unless `schedule`
  /// delivers pi — the RouteOptions::verify path.
  void verify_or_abort(const FlatSchedule& schedule, const Permutation& pi,
                       const char* what);
  /// Why the last delivers() returned false, for abort messages.
  std::string verification_failure() const;

  Topology topo_;
  RouterOptions options_;

  // One warm-up call per strategy sizes that strategy's arenas; from
  // the second call on, the entry point arms a ScopedAllocationBan on
  // itself, so the steady-state contract is enforced at runtime rather
  // than inferred from footprint snapshots.
  bool warm_theorem2_ = false;
  bool warm_direct_ = false;
  bool warm_verify_ = false;

  // --- Theorem 2 scratch ---
  BipartiteMultigraph h_;    // the packet multigraph H (g x g)
  BipartiteMultigraph h_q_;  // one batch H_q (g x g)
  EdgeColorer colorer_;
  EdgeColoring coloring_;  // d-coloring of H
  EdgeColoring fair_;      // fair distribution of one batch
  std::vector<int> source_of_edge_;  // H_q edge id -> source processor
  std::vector<int> used_of_group_;   // intermediates taken per group
  std::vector<int> intermediate_of_;
  FlatSchedule theorem2_schedule_;
  // Bijectivity check of the Span overload: seen[v] is valid only when
  // stamped with the current validation epoch, so no clearing pass.
  std::vector<long long> image_seen_stamp_;
  long long image_epoch_ = 0;

  // --- Direct-router scratch (CSR coupler queues) ---
  std::vector<int> coupler_count_;   // packets per coupler
  std::vector<int> coupler_offset_;  // prefix sums, coupler_count()+1
  std::vector<int> coupler_queue_;   // sources bucketed by coupler
  int direct_max_demand_ = 0;
  FlatSchedule direct_schedule_;

  // --- Portfolio scratch ---
  // Constructed on the first verifying call: the simulator's
  // per-processor buffers and stamp arrays are the engine's largest
  // arena, and the unverified theorem2/direct paths never touch them.
  std::optional<Network> net_;
  RouteStrategy last_strategy_ = RouteStrategy::kTheorem2;

  // --- h-relation scratch (empty until the first route_h_relation) ---
  // Window traffic is colored by colorer_ too: its alternating-path
  // tables and the euler-split/spread arrays H uses are disjoint.
  BipartiteMultigraph traffic_{0, 0};  // n x n, edge id == request id
  EdgeColoring traffic_coloring_;      // h colors, one per phase
  // Requests bucketed by phase (CSR): phase c holds
  // phase_requests_[phase_offsets_[c] .. phase_offsets_[c + 1]).
  std::vector<int> phase_offsets_;
  std::vector<int> phase_requests_;
  std::vector<int> image_;              // the padded phase permutation
  std::vector<int> request_of_source_;  // -1 for a padding source
  std::vector<char> destination_used_;
  FlatSchedule h_schedule_;  // real packets only, by request id
};

}  // namespace pops
