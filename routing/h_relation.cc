#include "routing/h_relation.h"

#include <utility>

#include "routing/engine.h"

namespace pops {

int HRelationPlan::total_slots() const {
  int total = 0;
  for (const HRelationPhase& phase : phases) {
    total += as_int(phase.slots.size());
  }
  return total;
}

HRelationPlan h_relation_plan(const RoutingEngine& engine) {
  const FlatSchedule& schedule = engine.h_relation_schedule();
  const int slots_per_phase = theorem2_slots(engine.topology());
  HRelationPlan plan;
  plan.h = engine.phase_count();
  POPS_CHECK(schedule.slot_count() == plan.h * slots_per_phase,
             "h_relation_plan: schedule does not cover the phases");
  for (int c = 0; c < plan.h; ++c) {
    HRelationPhase phase;
    const Span<const int> requests = engine.phase_requests(c);
    phase.requests.assign(requests.begin(), requests.end());
    for (int s = c * slots_per_phase; s < (c + 1) * slots_per_phase; ++s) {
      const Span<const Transmission> slot = schedule.slot(s);
      phase.slots.emplace_back();
      phase.slots.back().transmissions.assign(slot.begin(), slot.end());
    }
    plan.phases.push_back(std::move(phase));
  }
  return plan;
}

HRelationPlan route_h_relation(const Topology& topo,
                               const std::vector<Request>& requests,
                               const RouterOptions& options) {
  RoutingEngine engine(topo, options);
  engine.route_h_relation(requests);
  return h_relation_plan(engine);
}

}  // namespace pops
