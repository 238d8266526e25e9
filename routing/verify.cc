#include "routing/verify.h"

#include "routing/h_relation.h"
#include "support/format.h"

namespace pops {
namespace {

// "" when every packet sits at its destination, else a description of
// the stranded (undelivered or misdelivered) packet at the lowest
// processor. One pass over the held packets.
std::string first_stranded_packet(const Network& net) {
  const HeldPacket* stranded = nullptr;
  for (const HeldPacket& held : net.packets()) {
    if (held.packet.destination != held.at &&
        (stranded == nullptr || held.at < stranded->at)) {
      stranded = &held;
    }
  }
  if (stranded == nullptr) return "";
  const Packet& packet = stranded->packet;
  return str_cat("packet ", packet.id, " (", packet.source, " -> ",
                 packet.destination, ") stranded at processor ",
                 stranded->at, " after ", net.stats().slots_executed,
                 " slots");
}

}  // namespace

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
  if (!net.execute(schedule)) {
    result.failure = net.failure();
    return result;
  }
  // Full, correct delivery: every processor ends up holding exactly the
  // packet addressed to it.
  result.failure = first_stranded_packet(net);
  if (!result.failure.empty()) return result;
  // Nothing is stranded, so every packet p holds is addressed to p.
  const Permutation inverse = pi.inverse();
  for (int p = 0; p < topo.processor_count(); ++p) {
    const int expected_id = inverse(p);
    if (!net.holds(p, expected_id)) {
      result.failure =
          str_cat("processor ", p, " never received packet ",
                  expected_id, " (misdelivered or dropped)");
      return result;
    }
  }
  result.ok = true;
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
  // Execute phase by phase, slot by slot.
  for (const HRelationPhase& phase : plan.phases) {
    for (const SlotPlan& slot : phase.slots) {
      if (!net.execute_slot(slot)) return net.failure();
    }
  }
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const Request& request = requests[k];
    if (!net.holds(request.destination, as_int(k))) {
      return str_cat("request ", k, " (", request.source, " -> ",
                     request.destination, ") was not delivered after ",
                     plan.total_slots(), " slots");
    }
  }
  return first_stranded_packet(net);
}

}  // namespace pops
