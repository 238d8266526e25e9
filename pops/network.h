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
// (or one hand-built SlotPlan at a time). The Network keeps one flat
// record per held packet (the packet and the processor holding it),
// chained by id bucket: the bucket of an id is its low bits, and there
// are at least as many buckets as records loaded, so traffic with ids
// 0..count-1 (every library caller's) puts one record in each and a
// transmission finds its packet in one step. A load or a move writes
// only the record and its link. The Network keeps no per-processor
// counts: the rare "any" send counts its sender's packets by scanning
// the records. A slot takes two passes over its transmissions: the
// first checks every rule and resolves each sender's packet, the
// second moves the packets. Slot bookkeeping lives in stamped scratch
// arrays, so executing unicast traffic performs no heap allocation
// once the records are sized. execute() arms no allocation ban of its
// own: its one owner, the RoutingEngine, verifies inside its caller's
// ban (route()'s own, or the TrafficServer's window ban).
//
// A verifier loads its traffic, executes the schedule and takes the
// verdict: failure() names the first broken rule, and stranded() the
// packet left away from its destination at the lowest processor.
// delivers() is that whole check for a packet list in one call; the
// RoutingEngine verifies every route through it.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
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
    // group_of divides by d with one multiply and one shift. With
    // 2^shift >= 2^31 * d and magic = ceil(2^shift / d), the rounding
    // error magic * d - 2^shift < d adds less than 1 / d to p / d for
    // every int p >= 0, so the floor is exact; p * magic < 2^63.
    while ((std::uint64_t{1} << (group_shift_ - 31)) < as_size(d)) {
      ++group_shift_;
    }
    group_magic_ =
        ((std::uint64_t{1} << group_shift_) + as_size(d) - 1) / as_size(d);
  }

  int d() const { return d_; }
  int g() const { return g_; }
  int processor_count() const { return d_ * g_; }
  int coupler_count() const { return g_ * g_; }

  int group_of(int processor) const {
    POPS_CHECK(processor >= 0 && processor < processor_count(),
               "group_of: processor out of range");
    return static_cast<int>(
        (static_cast<std::uint64_t>(processor) * group_magic_) >> group_shift_);
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
  int group_shift_ = 31;
  std::uint64_t group_magic_ = 0;
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

/// The packets one processor holds, gathered by Network::buffer().
/// operator[] returns by value, so `net.buffer(p)[0].id` stays valid
/// after the gathered buffer, a temporary, is gone.
class PacketBuffer {
 public:
  explicit PacketBuffer(std::vector<Packet> packets)
      : packets_(std::move(packets)) {}

  std::size_t size() const { return packets_.size(); }
  Packet operator[](std::size_t i) const {
    POPS_CHECK(i < packets_.size(), "PacketBuffer index out of range");
    return packets_[i];
  }
  std::vector<Packet>::const_iterator begin() const {
    return packets_.begin();
  }
  std::vector<Packet>::const_iterator end() const { return packets_.end(); }

 private:
  std::vector<Packet> packets_;
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

  /// Replaces the traffic with one packet {id = packet, source,
  /// destination, size 1} per entry, as clearing it and calling
  /// load_packet per entry would (same checks). Keeps stats.
  void load_packets(Span<const Transmission> packets);

  /// Executes the slots in order. Returns false (and records the
  /// failure) as soon as a slot violates the model; later slots are
  /// not executed.
  bool execute(const FlatSchedule& schedule);
  /// Executes one slot; the SlotPlan overload runs a hand-built slot.
  bool execute_slot(const SlotPlan& slot) {
    return execute_slot(Span<const Transmission>(slot.transmissions));
  }
  bool execute_slot(Span<const Transmission> transmissions);

  /// True when every held packet, multicast copies included, sits at
  /// its destination: stranded() is "".
  bool all_delivered() const;
  /// The delivery verdict every verifier ends with: "" when every held
  /// packet sits at its destination, else the packet held at the lowest
  /// processor that does not, with its id, source, destination, holder
  /// and the slots executed. Formats (allocates) only in that case.
  std::string stranded() const;

  /// The whole check for a packet list: reset(), load_packets(packets),
  /// then true iff execute(schedule) succeeds and all_delivered(). On
  /// false, failure() names the broken rule, or, when ok(), stranded()
  /// names the stranded packet.
  bool delivers(Span<const Transmission> packets, const FlatSchedule& schedule);

  /// False after the first rejected slot; failure() says why.
  bool ok() const { return failure_.empty(); }
  const std::string& failure() const { return failure_; }

  const Topology& topology() const { return topo_; }
  const NetworkStats& stats() const { return stats_; }
  /// The packets currently held at `processor`, gathered from the
  /// records in O(packet_count()). Order carries no semantics:
  /// execute() resolves packets by id, and an "any" send needs its
  /// sender to hold exactly one packet.
  PacketBuffer buffer(int processor) const;
  int packet_count() const { return as_int(packets_.size()); }

  /// Total capacity of the packet records, their links, the buckets
  /// and the slot scratch arenas, in elements — compared across
  /// executions by the zero-allocation tests.
  std::size_t scratch_capacity() const;

  /// Pre-sizes the packet records, their links and the buckets for
  /// `count` packets: loading at most `count` packets then allocates
  /// nothing, and neither does executing them unicast (only a
  /// multicast copy adds a record).
  void reserve_packets(int count);

 private:
  /// Records the first failure and returns false. The message parts
  /// are formatted lazily, under a ScopedAllocationAllow: composing a
  /// rejection diagnostic allocates, and that must not trip the ban the
  /// owner holds around execute() — the caller wants the model
  /// violation reported, not the guard.
  template <typename... Parts>
  bool fail(const Parts&... parts) {
    if (failure_.empty()) {
      ScopedAllocationAllow allow;
      failure_ = str_cat(parts...);
    }
    return false;
  }

  /// One packet the Network holds (a loaded packet or a multicast
  /// copy), and the processor `at` that holds it.
  struct HeldPacket {
    Packet packet;
    int at;
  };

  /// Drops every packet and empties the buckets (capacity is kept).
  void clear_packets();
  /// The one loop of both bulk loaders: replaces the traffic with
  /// `count` packets, record r holding the packet that packet_of(r)
  /// names as a Transmission {source, destination, id}, at its source.
  template <typename PacketOf>
  void load_all(int count, PacketOf packet_of);
  /// Appends a record for `packet` at processor `at` and returns it;
  /// the caller links it.
  int append_record(Packet packet, int at);
  /// Links record `r` at the head of its id's bucket.
  void link(int r);
  /// Grows the buckets, if needed, to at least `count` (a power of two)
  /// and relinks every record.
  void reserve_buckets(int count);
  /// The bucket of `id`: its low bits.
  std::size_t bucket(int id) const {
    return static_cast<std::uint32_t>(id) & (head_.size() - 1);
  }
  /// The record of a packet with id `packet_id` held at `processor`,
  /// or -1.
  int find_packet(int processor, int packet_id) const;
  /// The record of the one packet `processor` holds, or -1 unless it
  /// holds exactly one (the "any" rule). Scans every record: only
  /// hand-built multicast slots send "any".
  int only_packet(int processor) const;
  /// The record stranded() names, or nullptr when none is stranded.
  const HeldPacket* lowest_stranded() const;

  Topology topo_;
  // One record per held packet, in load order with multicast copies
  // appended; a transmission updates its record in place. Each record
  // is linked into the chain of its id's bucket, newest load first; a
  // multicast copy follows its original, so execute() never touches
  // head_. The bucket count is a power of two, at least the records
  // reserved or loaded, and never depends on an id. Nothing is kept per
  // processor: what a processor holds is a scan.
  std::vector<HeldPacket> packets_;
  std::vector<int> next_;  // per record; -1 ends the chain
  std::vector<int> head_;  // per bucket: its newest record, or -1
  NetworkStats stats_;
  std::string failure_;

  // Per-slot scratch arenas. An entry is valid only when its stamp
  // equals epoch_ (bumped once per execute_slot), so no clearing pass
  // over the n + g^2 entries is needed between slots.
  struct Sender {
    long long stamp;
    int packet;  // the id this processor transmits
    int record;  // its record; ~record once pass 2 has moved it
  };
  struct Driver {
    long long stamp;
    int source;  // the processor driving this coupler
  };
  long long epoch_ = 0;
  std::vector<Sender> senders_;            // per processor
  std::vector<Driver> drivers_;            // per coupler
  std::vector<long long> receiver_stamp_;  // per processor
};

}  // namespace pops
