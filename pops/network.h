// The POPS(d, g) topology model and its strict slot-level simulator.
//
// A Partitioned Optical Passive Stars network POPS(d, g) has n = d * g
// processors in g groups of d, and g^2 optical star couplers. Coupler
// c(i, j) accepts light from the processors of source group j and
// delivers it to the processors of destination group i. In one time
// slot:
//   * each coupler carries at most one packet (one transmitter),
//   * each processor transmits at most one packet (it may drive
//     several couplers with the same packet — that is an optical
//     multicast),
//   * each processor tunes its receiver to at most one coupler, so it
//     receives at most one packet.
//
// The Network class executes schedules under exactly these rules and
// refuses (with a recorded failure string) anything that violates
// them. Every number the benches print comes from a schedule that went
// through this simulator. Schedules arrive as FlatSchedule slot spans
// (or one hand-built SlotPlan at a time); all slot bookkeeping lives
// in stamped scratch arrays owned by the Network,
// and the packets themselves live in one pooled SoA slab (fixed-stride
// per-processor regions over five parallel field arrays), so executing
// a slot strides contiguous memory and performs no heap allocation
// once the slab is warm.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "perm/permutation.h"
#include "pops/flat_plan.h"
#include "support/alloc_guard.h"
#include "support/check.h"
#include "support/format.h"
#include "support/span.h"
#include "support/thread_annotations.h"

namespace pops {

class Topology {
 public:
  /// d processors per group, g groups.
  Topology(int d, int g) : d_(d), g_(g) {
    POPS_CHECK(d >= 1, "POPS(d, g) needs d >= 1");
    POPS_CHECK(g >= 1, "POPS(d, g) needs g >= 1");
    // processor_count() and coupler_count() are ints.
    POPS_CHECK(d <= std::numeric_limits<int>::max() / g,
               "POPS(d, g) needs d * g to fit an int");
    POPS_CHECK(g <= std::numeric_limits<int>::max() / g,
               "POPS(d, g) needs g * g to fit an int");
  }

  int d() const { return d_; }
  int g() const { return g_; }
  int group_size() const { return d_; }
  int group_count() const { return g_; }
  int processor_count() const { return d_ * g_; }
  int coupler_count() const { return g_ * g_; }

  int group_of(int processor) const {
    POPS_CHECK(processor >= 0 && processor < processor_count(),
               "group_of: processor out of range");
    return processor / d_;
  }
  int index_in_group(int processor) const {
    POPS_CHECK(processor >= 0 && processor < processor_count(),
               "index_in_group: processor out of range");
    return processor % d_;
  }
  int processor(int group, int index) const {
    POPS_CHECK(group >= 0 && group < g_, "processor: group out of range");
    POPS_CHECK(index >= 0 && index < d_, "processor: index out of range");
    return group * d_ + index;
  }
  /// Dense id of coupler c(dst_group, src_group).
  int coupler(int dst_group, int src_group) const {
    POPS_CHECK(dst_group >= 0 && dst_group < g_,
               "coupler: destination group out of range");
    POPS_CHECK(src_group >= 0 && src_group < g_,
               "coupler: source group out of range");
    return dst_group * g_ + src_group;
  }

  std::string to_string() const {
    return str_cat("POPS(", d_, ",", g_, ")");
  }

 private:
  int d_;
  int g_;
};

struct Packet {
  int id;           // unique per loaded packet (source id for
                    // permutation traffic); -1 means "any"
  int source;       // processor that injected the packet
  int destination;  // processor that must finally receive it
  int size;         // payload size in flits (bookkeeping only)
  int hops;         // slots this packet has traveled so far
};

struct NetworkStats {
  long long slots_executed = 0;
  long long packets_moved = 0;
  long long coupler_slots_busy = 0;
  long long coupler_slot_capacity = 0;

  double average_coupler_utilization() const {
    return coupler_slot_capacity == 0
               ? 0.0
               : static_cast<double>(coupler_slots_busy) /
                     static_cast<double>(coupler_slot_capacity);
  }
};

/// Non-owning view of one processor's packets inside the Network's
/// pooled SoA slab. operator[] (and the iterator) gathers a Packet by
/// value from the five parallel field arrays; range-for with
/// `const Packet&` binds the gathered temporary as usual. Valid until
/// the next mutating Network call (loading, executing, or resetting
/// may grow or rewrite the slab).
class PacketBufferView {
 public:
  PacketBufferView(const int* id, const int* source,
                   const int* destination, const int* size,
                   const int* hops, int count)
      : id_(id),
        source_(source),
        destination_(destination),
        size_(size),
        hops_(hops),
        count_(count) {}

  std::size_t size() const { return as_size(count_); }
  int count() const { return count_; }
  bool empty() const { return count_ == 0; }

  Packet operator[](std::size_t i) const {
    POPS_CHECK(i < as_size(count_),
               "PacketBufferView index out of range");
    return Packet{id_[i], source_[i], destination_[i], size_[i],
                  hops_[i]};
  }

  /// Gather iterator over the view it came from; the view must stay
  /// alive for as long as its iterators (range-for guarantees this).
  class Iterator {
   public:
    Iterator(const PacketBufferView* view, int at)
        : view_(view), at_(at) {}
    Packet operator*() const { return (*view_)[as_size(at_)]; }
    Iterator& operator++() {
      ++at_;
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return at_ == other.at_;
    }
    bool operator!=(const Iterator& other) const {
      return at_ != other.at_;
    }

   private:
    const PacketBufferView* view_;
    int at_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, count_); }

 private:
  const int* id_;
  const int* source_;
  const int* destination_;
  const int* size_;
  const int* hops_;
  int count_;
};

class POPS_THREAD_COMPATIBLE Network {
 public:
  explicit Network(const Topology& topo);

  /// Drops all packets and statistics.
  void reset();

  /// Replaces the current traffic with one packet per processor:
  /// processor i holds packet {id = i, destination = pi(i)}.
  /// Statistics are kept (reset() clears them).
  void load_permutation_traffic(const Permutation& pi);

  /// Adds one packet at packet.source. By value: a Packet is five
  /// ints, cheaper in registers than behind a pointer.
  void load_packet(Packet packet);

  /// Executes the slots in order. Returns false (and records the
  /// failure) as soon as a slot violates the model; later slots are
  /// not executed.
  bool execute(const FlatSchedule& schedule);
  /// Executes one slot; the SlotPlan overload runs a hand-built slot.
  bool execute_slot(const SlotPlan& slot) {
    return execute_slot(Span<const Transmission>(slot.transmissions));
  }
  bool execute_slot(Span<const Transmission> transmissions);

  /// True when every loaded packet sits at its destination.
  bool all_delivered() const;

  /// False after the first rejected slot; failure() says why.
  bool ok() const { return failure_.empty(); }
  const std::string& failure() const { return failure_; }

  const Topology& topology() const { return topo_; }
  const NetworkStats& stats() const { return stats_; }
  /// The packets currently held at `processor`, as a gather view into
  /// the SoA slab. Withdrawal is swap-and-pop, so buffer order is an
  /// implementation detail — delivery semantics never depend on it.
  PacketBufferView buffer(int processor) const {
    POPS_CHECK(processor >= 0 && processor < topo_.processor_count(),
               "buffer: processor out of range");
    const std::size_t base =
        as_size(processor) * as_size(slab_stride_);
    return PacketBufferView(
        slab_id_.data() + base, slab_source_.data() + base,
        slab_destination_.data() + base, slab_size_.data() + base,
        slab_hops_.data() + base, buffer_count_[as_size(processor)]);
  }
  int packet_count() const { return packet_count_; }

  /// Total capacity of the packet buffers and slot scratch arenas, in
  /// elements — compared across executions by the zero-allocation
  /// tests.
  std::size_t scratch_capacity() const;

  /// Pre-sizes every per-processor packet buffer: executions whose
  /// peak buffer occupancy stays within `per_processor` packets never
  /// grow scratch_capacity(). The TrafficServer calls this with its
  /// window worst case so steady-state serving is allocation-free.
  void reserve_buffers(int per_processor);

  /// Arms a ScopedAllocationBan around every subsequent execute()
  /// call: once the owner has warmed/reserved the buffers, any heap
  /// allocation while executing a schedule aborts under
  /// POPS_ALLOC_GUARD builds. The RoutingEngine and TrafficServer arm
  /// their internal simulators after their first verified run.
  void ban_steady_allocations(bool banned) { steady_banned_ = banned; }

 private:
  /// Records the first failure and returns false. The message parts
  /// are formatted lazily, under a ScopedAllocationAllow: composing a
  /// rejection diagnostic allocates, and that must not trip an armed
  /// execute() ban — the caller wants the model violation reported,
  /// not the guard.
  template <typename... Parts>
  bool fail(const Parts&... parts) {
    if (failure_.empty()) {
      ScopedAllocationAllow allow;
      failure_ = str_cat(parts...);
    }
    return false;
  }

  /// Widens every per-processor slab region to `new_stride` packets,
  /// shifting occupied prefixes in place (back to front, so rows never
  /// overwrite each other). No-op when new_stride <= slab_stride_.
  void grow_stride(int new_stride);

  Topology topo_;
  // Pooled SoA packet slab: processor p's packets occupy indices
  // [p * slab_stride_, p * slab_stride_ + buffer_count_[p]) of five
  // parallel field arrays. Fixed stride keeps rows independent, so
  // loading and delivering are O(1) appends and withdrawal is a
  // swap-and-pop instead of vector::erase's O(k) shift.
  int slab_stride_ = 0;
  std::vector<int> buffer_count_;  // per processor
  std::vector<int> slab_id_;
  std::vector<int> slab_source_;
  std::vector<int> slab_destination_;
  std::vector<int> slab_size_;
  std::vector<int> slab_hops_;
  int packet_count_ = 0;
  NetworkStats stats_;
  std::string failure_;
  bool steady_banned_ = false;

  // Per-slot scratch arenas. An entry is valid only when its stamp
  // equals epoch_ (bumped once per execute_slot), so no clearing pass
  // over the n + g^2 arrays is needed between slots.
  long long epoch_ = 0;
  std::vector<long long> source_stamp_;    // per processor
  std::vector<long long> coupler_stamp_;   // per coupler
  std::vector<long long> receiver_stamp_;  // per processor
  std::vector<int> packet_of_source_;      // per processor
  std::vector<int> source_of_coupler_;     // per coupler
  std::vector<int> buffer_index_of_source_;  // per processor
  std::vector<Packet> in_flight_;          // per processor
  std::vector<int> touched_sources_;       // distinct senders, in order
};

}  // namespace pops
