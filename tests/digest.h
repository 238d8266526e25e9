// FNV-1a digests for the tests that pin a run's output bit for bit:
// schedules, int arrays and counters.
#pragma once

#include <cstdint>
#include <vector>

#include "pops/flat_plan.h"

namespace pops::testing {

class Digest {
 public:
  void add(int value) { add_bytes(static_cast<std::uint32_t>(value), 4); }
  void add(long long value) {
    add_bytes(static_cast<std::uint64_t>(value), 8);
  }
  void add(std::uint64_t value) { add_bytes(value, 8); }
  void add(const FlatSchedule& schedule) {
    add(schedule.slot_count());
    for (int s = 0; s < schedule.slot_count(); ++s) {
      add(schedule.slot(s).count());
      for (const Transmission& t : schedule.slot(s)) {
        add(t.source);
        add(t.destination);
        add(t.packet);
      }
    }
  }
  void add(const std::vector<int>& values) {
    for (const int value : values) add(value);
  }
  std::uint64_t value() const { return hash_; }

 private:
  // The low `bytes` bytes of `value`, least significant first.
  void add_bytes(std::uint64_t value, int bytes) {
    for (int byte = 0; byte < bytes; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace pops::testing
