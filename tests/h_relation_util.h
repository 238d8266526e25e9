// Exact h-relation schedule lengths, recomputed from the requests.
//
// RoutingEngine::route_h_relation routes each König phase on its own
// packets and builds whichever of its two schedules is shorter, so
// every phase has one exact length the tests can predict without
// looking at the engine's schedule.
#pragma once

#include <algorithm>
#include <vector>

#include "routing/h_relation.h"

namespace pops::testing {

/// The most packets of `phase` (request ids) that share one coupler:
/// the length of its direct schedule.
inline int phase_max_demand(const Topology& topo,
                            const std::vector<Request>& requests,
                            const std::vector<int>& phase) {
  std::vector<int> load(as_size(topo.coupler_count()), 0);
  int demand = 0;
  for (const int e : phase) {
    const Request& request = requests[as_size(e)];
    const int coupler = topo.coupler(topo.group_of(request.destination),
                                     topo.group_of(request.source));
    demand = std::max(demand, ++load[as_size(coupler)]);
  }
  return demand;
}

/// The slot count route_h_relation must give `phase`:
/// min(M, 2 * ceil(Delta / g)), where M is phase_max_demand and Delta
/// the most packets of the phase one group sends or receives.
inline int expected_phase_slots(const Topology& topo,
                                const std::vector<Request>& requests,
                                const std::vector<int>& phase) {
  const int g = topo.g();
  std::vector<int> sends(as_size(g), 0);
  std::vector<int> receives(as_size(g), 0);
  int delta = 0;
  for (const int e : phase) {
    const Request& request = requests[as_size(e)];
    delta = std::max(
        {delta, ++sends[as_size(topo.group_of(request.source))],
         ++receives[as_size(topo.group_of(request.destination))]});
  }
  return std::min(phase_max_demand(topo, requests, phase),
                  2 * ((delta + g - 1) / g));
}

/// Sum of expected_phase_slots over the phases of `plan`.
inline int expected_plan_slots(const Topology& topo,
                               const std::vector<Request>& requests,
                               const HRelationPlan& plan) {
  int total = 0;
  for (const HRelationPhase& phase : plan.phases) {
    total += expected_phase_slots(topo, requests, phase.requests);
  }
  return total;
}

}  // namespace pops::testing
