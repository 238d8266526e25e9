// h-relation routing on POPS(d, g) — the compositional consequence of
// Theorem 2.
//
// An h-relation is a set of point-to-point requests in which every
// processor sends at most h packets and receives at most h packets.
// RoutingEngine::route_h_relation routes one: König edge coloring
// splits the traffic into h partial permutations, and each one is
// routed on its own packets in min(M, 2 * ceil(Delta / g)) slots (see
// HRelationPhase), never more than theorem2_slots(topo). So the
// schedule has at most h * 2 * ceil(d / g) slots (h slots when d = 1).
//
// This header holds the nested view of that result: HRelationPlan
// lists every phase's requests and slots, which is what tests,
// verify_h_relation and TrafficServer::last_window_plan() hand
// around. Building it allocates; the serving path never does.
#pragma once

#include <vector>

#include "pops/network.h"
#include "routing/router.h"

namespace pops {

class RoutingEngine;

/// One color class of the decomposition: a partial permutation,
/// routed on its own packets.
struct HRelationPhase {
  /// Indices (into the request vector) of the requests this phase
  /// delivers, in ascending order.
  std::vector<int> requests;
  /// min(M, 2 * ceil(Delta / g)) slots, where M is the largest number
  /// of the phase's packets sharing one coupler and Delta the most
  /// packets one group sends or receives: the direct schedule when it
  /// is no longer, else Theorem 2 on the phase's packets.
  std::vector<SlotPlan> slots;
};

struct HRelationPlan {
  /// Degree of the relation: the largest number of packets one
  /// processor sends or receives. Equals the number of phases (König).
  int h = 0;
  std::vector<HRelationPhase> phases;

  /// Sum of every phase's slot count: at most h * theorem2_slots(topo),
  /// the budget of routing every phase at the Theorem 2 bound.
  int total_slots() const;
};

/// The last RoutingEngine::route_h_relation result of `engine`, copied
/// into the nested layout.
HRelationPlan h_relation_plan(const RoutingEngine& engine);

/// One-shot wrapper: routes and verifies the relation on a transient
/// engine (Theorem 2 coloring backend from `options`; window traffic
/// is always colored with alternating path) and returns the nested plan.
HRelationPlan route_h_relation(const Topology& topo,
                               const std::vector<Request>& requests,
                               const RouterOptions& options = {});

}  // namespace pops
