#include "routing/verify.h"

#include "routing/h_relation.h"
#include "support/format.h"

namespace pops {

VerificationResult verify_schedule(const Topology& topo,
                                   const Permutation& pi,
                                   const FlatSchedule& schedule) {
  VerificationResult result;
  if (pi.size() != topo.processor_count()) {
    result.failure = str_cat("permutation of size ", pi.size(),
                             " does not fit ", topo.to_string());
    return result;
  }
  Network net(topo);
  net.load_permutation_traffic(pi);
  // With nothing stranded, processor p holds exactly packet pi^-1(p).
  result.failure = net.execute(schedule) ? net.stranded() : net.failure();
  result.ok = result.failure.empty();
  return result;
}

std::string verify_h_relation(const Topology& topo,
                              const std::vector<Request>& requests,
                              const HRelationPlan& plan) {
  const int n = topo.processor_count();
  Network net(topo);
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& request = requests[k];
    if (request.source < 0 || request.source >= n ||
        request.destination < 0 || request.destination >= n) {
      return str_cat("request ", k, " (", request.source, " -> ",
                     request.destination, ") does not fit ",
                     topo.to_string());
    }
    net.load_packet(
        Packet{as_int(k), request.source, request.destination, 1, 0});
  }
  // Execute phase by phase, slot by slot. With nothing stranded, each
  // request's packet sits at its destination.
  for (const HRelationPhase& phase : plan.phases) {
    for (const SlotPlan& slot : phase.slots) {
      if (!net.execute_slot(slot)) return net.failure();
    }
  }
  return net.stranded();
}

}  // namespace pops
