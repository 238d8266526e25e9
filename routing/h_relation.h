// h-relation routing on POPS(d, g) — the compositional consequence of
// Theorem 2.
//
// An h-relation is a set of point-to-point requests in which every
// processor sends at most h packets and receives at most h packets.
// Model the requests as a bipartite multigraph on the n processors
// (one edge per request): its maximum degree is exactly the h of the
// relation, so König edge coloring — the same substrate Theorem 1
// leans on — splits the traffic into h color classes, each a partial
// permutation. Padding each class to a full permutation and routing
// it through the Theorem 2 router gives a verified schedule of
// h * 2 * ceil(d / g) slots (h slots when d = 1).
#pragma once

#include <vector>

#include "perm/permutation.h"
#include "pops/network.h"
#include "routing/router.h"

namespace pops {

/// One packet of an h-relation: `source` must deliver one packet to
/// `destination`. The packet id is the request's index in the vector
/// handed to route_h_relation.
struct Request {
  int source;
  int destination;
};

/// One color class of the decomposition: a partial permutation routed
/// at the Theorem 2 bound.
struct HRelationPhase {
  /// Indices (into the request vector) of the requests this phase
  /// delivers.
  std::vector<int> requests;
  /// Exactly theorem2_slots(topo) slots, restricted to the phase's
  /// real packets (padding transmissions are dropped).
  std::vector<SlotPlan> slots;
};

struct HRelationPlan {
  /// Degree of the relation: the largest number of packets one
  /// processor sends or receives. Equals the number of phases (König).
  int h = 0;
  std::vector<HRelationPhase> phases;

  /// Sum of every phase's slot count: h * theorem2_slots(topo).
  int total_slots() const;
  /// Concatenation of every phase's slots, in phase order — the
  /// executable schedule.
  std::vector<SlotPlan> all_slots() const;
};

/// Decomposes the relation into h partial permutations via edge
/// coloring (always alternating path) and routes each through the
/// Theorem 2 router, whose coloring backend `options` picks.
HRelationPlan route_h_relation(const Topology& topo,
                               const std::vector<Request>& requests,
                               const RouterOptions& options = {});

}  // namespace pops
