// Per-instance lower bounds on POPS(d, g) routing time.
//
// Theorem 2's 2 * ceil(d / g) is an upper bound for every permutation;
// the paper's Propositions 1-3 show how tight it is per permutation
// class. lower_bound_slots certifies a slot count no schedule for the
// given instance can beat, combining:
//
//   * the bandwidth bound: every moved packet's first hop leaves its
//     source group through one of that group's min(d, g) usable
//     transmit opportunities per slot (g couplers c(*, j), at most d
//     transmitters), and symmetrically on the receive side — so
//     T >= ceil(max group load / min(d, g)). For a derangement this is
//     ceil(d / g) (Proposition 1), making the Theorem 2 ratio <= 2.
//   * the group-block bounds: when every source group maps as a block
//     onto a single destination group, the paper sharpens the count.
//     A moving block (sigma(j) != j for all j) needs 2 * ceil(d / g)
//     slots (Proposition 2 — Theorem 2 is exactly optimal there); a
//     fixed block with every packet displaced needs
//     2 * ceil(d / (g + 1)) (Proposition 3 — each group owns a single
//     direct coupler c(j, j), and every packet avoiding it must
//     transmit twice). Both counts stop at d, the length of the direct
//     schedule of any group-block permutation; they exceed it only
//     when g == 1, or g == 2 with d odd.
//
// The d == 1 topology routes any permutation in one slot (Theorem 2),
// so the bound collapses to 1 whenever anything moves.
#pragma once

#include "perm/permutation.h"
#include "pops/network.h"

namespace pops {

/// ceil(a / b) for a >= 0, b >= 1.
int ceil_div(int a, int b);

/// A certified lower bound on the number of slots any schedule
/// (direct, relayed, or mixed) needs to realize pi on topo. 0 for the
/// identity.
int lower_bound_slots(const Topology& topo, const Permutation& pi);

/// The h-relation budget of the König decomposition: h partial
/// permutations, each routed at the Theorem 2 bound — so
/// h * theorem2_slots(topo) slots (h when d == 1). Routing each phase
/// on its own packets never takes more (RoutingEngine::route_h_relation);
/// the TrafficServer reports executed window slots against this number.
/// 64-bit: a large h on a large d/g overflows an int.
long long h_relation_budget(const Topology& topo, int h);

}  // namespace pops
