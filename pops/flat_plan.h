// Schedule representations for the POPS(d, g) slot model.
//
// FlatSchedule is the one schedule layout: the RoutingEngine emits it,
// and the simulator, verifier and benches consume it. It holds one
// contiguous Transmission array plus the end offset of every slot.
// Rebuilding a schedule in place (clear, then begin_slot + push one
// transmission at a time, or append_slots to write whole slots at
// once) reuses the arrays, so bulk routing performs no steady-state
// heap allocation.
//
// SlotPlan is a single hand-built slot: tests and one_to_all() build
// one, Network::execute_slot runs it, and the nested HRelationPlan
// phases hold them.
#pragma once

#include <vector>

#include "support/check.h"
#include "support/span.h"

namespace pops {

/// One optical transmission: `source` drives the coupler
/// c(group(destination), group(source)) with packet `packet`, and
/// `destination` tunes its receiver to that coupler.
struct Transmission {
  int source;
  int destination;
  int packet;
};

/// All transmissions of one time slot.
struct SlotPlan {
  std::vector<Transmission> transmissions;
};

/// CSR-style schedule: transmissions of slot s are the contiguous
/// range [slot_ends_[s - 1], slot_ends_[s]) of one flat array (slot 0
/// starts at 0). A default-constructed schedule owns no storage.
class FlatSchedule {
 public:
  /// Drops all slots but keeps the array capacities (the point of the
  /// flat layout: rebuild in place, allocation-free once warm).
  void clear() {
    transmissions_.clear();
    slot_ends_.clear();
  }

  /// Opens a new (initially empty) slot; push() appends to it.
  void begin_slot() { slot_ends_.push_back(as_int(transmissions_.size())); }

  /// Appends a transmission to the currently open slot. By value: a
  /// Transmission is three ints, cheaper in registers than behind a
  /// pointer.
  void push(Transmission transmission) {
    POPS_CHECK(slot_count() > 0, "FlatSchedule::push without a slot");
    transmissions_.push_back(transmission);
    slot_ends_.back() = as_int(transmissions_.size());
  }

  /// Appends `slots` slots of exactly `size` transmissions each and
  /// returns their transmissions, slot after slot, for the caller to
  /// fill: one capacity check for all of them, where push() makes one
  /// per transmission. The pointer is valid until the next change to
  /// the schedule.
  Transmission* append_slots(int slots, int size) {
    const std::size_t begin = transmissions_.size();
    transmissions_.resize(begin + as_size(slots) * as_size(size));
    for (int s = 1; s <= slots; ++s) {
      slot_ends_.push_back(as_int(begin + as_size(s) * as_size(size)));
    }
    return transmissions_.data() + begin;
  }

  int slot_count() const { return as_int(slot_ends_.size()); }
  int transmission_count() const { return as_int(transmissions_.size()); }

  Span<const Transmission> slot(int s) const {
    POPS_CHECK(s >= 0 && s < slot_count(),
               "FlatSchedule::slot out of range");
    const int lo = s == 0 ? 0 : slot_ends_[as_size(s - 1)];
    const int hi = slot_ends_[as_size(s)];
    return Span<const Transmission>(transmissions_.data() + lo,
                                    as_size(hi - lo));
  }
  Span<const Transmission> transmissions() const { return transmissions_; }

  /// Pre-sizes the arrays so a subsequent rebuild cannot reallocate.
  void reserve(int transmissions, int slots) {
    transmissions_.reserve(as_size(transmissions));
    slot_ends_.reserve(as_size(slots));
  }

  /// Capacity snapshot for the zero-allocation tests.
  std::size_t transmission_capacity() const {
    return transmissions_.capacity();
  }
  std::size_t slot_capacity() const { return slot_ends_.capacity(); }

 private:
  std::vector<Transmission> transmissions_;
  std::vector<int> slot_ends_;  // one entry per slot
};

}  // namespace pops
