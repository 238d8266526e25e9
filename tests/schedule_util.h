// Bitwise schedule comparison for the tests that pin one route's
// schedule to another's.
#pragma once

#include "pops/flat_plan.h"

namespace pops::testing {

/// True iff `a` and `b` have the same slots, each holding the same
/// transmissions in the same order.
inline bool same_schedule(const FlatSchedule& a, const FlatSchedule& b) {
  if (a.slot_count() != b.slot_count()) return false;
  if (a.transmission_count() != b.transmission_count()) return false;
  for (int s = 0; s < a.slot_count(); ++s) {
    const Span<const Transmission> sa = a.slot(s);
    const Span<const Transmission> sb = b.slot(s);
    if (sa.size() != sb.size()) return false;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i].source != sb[i].source ||
          sa[i].destination != sb[i].destination ||
          sa[i].packet != sb[i].packet) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace pops::testing
