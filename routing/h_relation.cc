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
  const FlatSchedule& schedule = engine.schedule();
  const Span<const int> slot_offsets = engine.phase_slot_offsets();
  HRelationPlan plan;
  plan.h = engine.phase_count();
  for (int c = 0; c < plan.h; ++c) {
    HRelationPhase phase;
    for (const Transmission& packet : engine.phase_packets(c)) {
      phase.requests.push_back(packet.packet);
    }
    const int first = slot_offsets[as_size(c)];
    const int end = slot_offsets[as_size(c + 1)];
    for (int s = first; s < end; ++s) {
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
