// Strict schedule verification.
//
// verify_schedule is the machine check behind every experiment table:
// it executes a schedule on the strict simulator and confirms that the
// permutation was actually realized. A table row is only printed for a
// schedule that passes.
#pragma once

#include <string>
#include <vector>

#include "perm/permutation.h"
#include "pops/network.h"

namespace pops {

// From routing/router.h and routing/h_relation.h — forward-declared
// so verify.h stays below the routing stack in the include graph.
struct Request;
struct HRelationPlan;

struct VerificationResult {
  bool ok = false;
  /// Human-readable reason for the first violation when !ok.
  std::string failure;
};

/// Loads one packet per processor (i -> pi(i)), executes the schedule
/// under the strict POPS model, and ends with the simulator's verdict.
/// Any model violation (oversubscribed coupler, double send/receive,
/// phantom packet) fails with Network::failure(), and any undelivered
/// or misdelivered packet with Network::stranded().
VerificationResult verify_schedule(const Topology& topo,
                                   const Permutation& pi,
                                   const FlatSchedule& schedule);

/// h-relation counterpart of verify_schedule: loads one packet per
/// request (id == request index), executes every phase's slots in
/// order under the strict POPS model, and ends with the same verdict.
/// Returns "" on success, else Network::failure() or
/// Network::stranded().
std::string verify_h_relation(const Topology& topo,
                              const std::vector<Request>& requests,
                              const HRelationPlan& plan);

}  // namespace pops
