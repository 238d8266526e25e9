// The routing API for POPS(d, g) permutation traffic.
//
// Mei & Rizzi (IPDPS 2002): every permutation can be routed in one slot
// when d = 1 and in 2 * ceil(d / g) slots when d > 1. The construction
// is oblivious and two-phase:
//
//   1. Build the d-regular bipartite multigraph H on the g source
//      groups and g destination groups with one edge per packet, and
//      properly edge-color it with d colors (Remark 1 / König).
//   2. Name an intermediate group for every packet (the "fair
//      distribution") such that, per batch, (a) the packets of one
//      source group use distinct intermediate groups and (b) the
//      packets relayed by one intermediate group use distinct
//      destination groups, with at most d packets per group. A color
//      is a matching of g packets, so when g <= d the colors bundle
//      into ceil(d / g) batches of g, and color c of batch q names
//      intermediate group c - q * g. When g > d there is one batch,
//      and H's coloring is spread onto g balanced classes of d
//      packets, each naming a group. Properness gives (a) and (b).
//   3. Batch q then takes exactly two slots: slot 2q ships every
//      packet of the batch to a private processor of its intermediate
//      group, slot 2q+1 forwards it to its true destination. All
//      coupler, transmitter and receiver constraints hold by (a), (b)
//      and the properness of the coloring.
//
// RoutingEngine (routing/engine.h) is the only code that turns
// traffic into a schedule. One-shot callers use the single entry point
//
//   RouteResult result = route(topo, pi, RouteOptions{...});
//
// which selects a strategy (Theorem 2, the greedy direct router, or
// the verified shorter of the two), optionally verifies the
// schedule on the strict simulator, and returns a FlatSchedule plus
// the strategy that produced it. Bulk callers hold a RoutingEngine
// and call engine.route(pi, options) to reuse the scratch arenas;
// many-permutation throughput callers use BatchRouter::route_batch
// (routing/batch_router.h); h-relations of Requests go through
// RoutingEngine::route_h_relation (routing/h_relation.h wraps it).
#pragma once

#include <string>

#include "graph/edge_coloring.h"
#include "perm/permutation.h"
#include "pops/network.h"

namespace pops {

/// The routing strategies of the portfolio.
enum class RouteStrategy {
  /// Greedy one-hop schedule: exactly max-demand slots. Fast on random
  /// traffic (max demand ~ d/g), degrades to d slots on adversarial
  /// group-block traffic.
  kDirect = 0,
  /// The paper's two-phase construction: a flat 2 * ceil(d / g) slots
  /// (1 slot when d = 1) for ANY permutation.
  kTheorem2 = 1,
  /// One pass over the packets finds M, the most packets on one
  /// coupler (the direct schedule's length); only the shorter of the
  /// two schedules is built, direct on ties. The schedule returned is
  /// always verified, regardless of RouteOptions::verify. Every
  /// h-relation phase is routed by the same rule and verified.
  kBest = 2,
};

std::string to_string(RouteStrategy strategy);

struct RouterOptions {
  /// Edge-coloring backend for H, which a Theorem 2 route colors once
  /// (each batch reuses H's colors). H is d-regular, so the default
  /// euler-split backend never pads it and never peels a matching when
  /// d is a power of two.
  ColoringAlgorithm coloring = ColoringAlgorithm::kEulerSplit;
};

/// Options of the unified route() entry point (and of
/// RoutingEngine::route / BatchRouter::route_batch).
struct RouteOptions {
  RouteStrategy strategy = RouteStrategy::kBest;
  /// Execute the schedule on the strict simulator and abort on any
  /// model violation or misdelivery. kBest always verifies the
  /// schedule it returns; for kDirect/kTheorem2 this buys the same
  /// guarantee at the cost of one simulated execution.
  bool verify = false;
};

/// What route() returns: the schedule in the canonical flat layout,
/// the strategy that actually produced it (the concrete winner when
/// kBest was requested), and its length.
struct RouteResult {
  FlatSchedule schedule;
  RouteStrategy strategy = RouteStrategy::kTheorem2;
  int slot_count = 0;
};

/// One packet of an h-relation: `source` must deliver one packet to
/// `destination`. The packet id is the request's index in the array
/// handed to route_h_relation.
struct Request {
  int source;
  int destination;
};

/// The Theorem 2 bound: 1 when d == 1, else 2 * ceil(d / g). Aborts
/// when 2 * d * g does not fit an int, as RoutingEngine does.
int theorem2_slots(const Topology& topo);

/// One-shot unified entry point: routes pi with options.strategy and
/// returns the verified-on-request result. Constructs a transient
/// RoutingEngine with the default RouterOptions per call — bulk
/// callers, and callers that pick a coloring backend, hold an engine
/// (or a BatchRouter) instead.
RouteResult route(const Topology& topo, const Permutation& pi,
                  const RouteOptions& options = {});

}  // namespace pops
