#include "pops/network.h"

#include <algorithm>

namespace pops {
namespace {

// Worst-case simultaneous occupancy of one processor buffer under
// single-packet-per-processor traffic: its own packet (until sent), one
// relayed packet in transit, and the finally delivered packet. The slab
// stride starts here so steady-state execution never grows the slab.
constexpr int kSteadyBufferReserve = 4;

}  // namespace

Network::Network(const Topology& topo)
    : topo_(topo),
      slab_stride_(kSteadyBufferReserve),
      buffer_count_(as_size(topo.processor_count()), 0),
      slab_id_(as_size(topo.processor_count()) *
               as_size(kSteadyBufferReserve)),
      slab_source_(slab_id_.size()),
      slab_destination_(slab_id_.size()),
      slab_size_(slab_id_.size()),
      slab_hops_(slab_id_.size()),
      source_stamp_(as_size(topo.processor_count()), 0),
      coupler_stamp_(as_size(topo.coupler_count()), 0),
      receiver_stamp_(as_size(topo.processor_count()), 0),
      packet_of_source_(as_size(topo.processor_count()), -1),
      source_of_coupler_(as_size(topo.coupler_count()), -1),
      buffer_index_of_source_(as_size(topo.processor_count()), -1),
      in_flight_(as_size(topo.processor_count())) {
  touched_sources_.reserve(as_size(topo.processor_count()));
}

void Network::grow_stride(int new_stride) {
  if (new_stride <= slab_stride_) return;
  const int n = topo_.processor_count();
  std::vector<int>* slabs[] = {&slab_id_, &slab_source_,
                               &slab_destination_, &slab_size_,
                               &slab_hops_};
  for (std::vector<int>* slab : slabs) {
    slab->resize(as_size(n) * as_size(new_stride));
  }
  // Shift occupied prefixes back to front: row p's new start is at or
  // past its old start, so later rows are rehomed before earlier rows
  // could overwrite them, and copy_backward handles the in-row overlap.
  for (int p = n - 1; p > 0; --p) {
    const std::size_t count = as_size(buffer_count_[as_size(p)]);
    if (count == 0) continue;
    const std::size_t old_base = as_size(p) * as_size(slab_stride_);
    const std::size_t new_base = as_size(p) * as_size(new_stride);
    for (std::vector<int>* slab : slabs) {
      int* data = slab->data();
      std::copy_backward(data + old_base, data + old_base + count,
                         data + new_base + count);
    }
  }
  slab_stride_ = new_stride;
}

void Network::reset() {
  std::fill(buffer_count_.begin(), buffer_count_.end(), 0);
  packet_count_ = 0;
  stats_ = NetworkStats{};
  failure_.clear();
}

void Network::load_permutation_traffic(const Permutation& pi) {
  POPS_CHECK(pi.size() == topo_.processor_count(),
             "permutation size does not match the topology");
  // Writes the slab rows directly: one packet per processor always
  // fits the stride (>= 1), sources are the loop variable, and a
  // Permutation's images are in range by construction, so the
  // per-packet range checks of load_packet would be dead.
  const int n = pi.size();
  const std::size_t stride = as_size(slab_stride_);
  int* id = slab_id_.data();
  int* source_field = slab_source_.data();
  int* destination = slab_destination_.data();
  int* size = slab_size_.data();
  int* hops = slab_hops_.data();
  for (int source = 0; source < n; ++source) {
    const std::size_t at = as_size(source) * stride;
    id[at] = source;
    source_field[at] = source;
    destination[at] = pi(source);
    size[at] = 1;
    hops[at] = 0;
  }
  std::fill(buffer_count_.begin(), buffer_count_.end(), 1);
  packet_count_ = n;
  failure_.clear();
}

void Network::load_packet(Packet packet) {
  POPS_CHECK(packet.source >= 0 &&
                 packet.source < topo_.processor_count(),
             "load_packet: source out of range");
  POPS_CHECK(packet.destination >= -1 &&
                 packet.destination < topo_.processor_count(),
             "load_packet: destination out of range");
  const int count = buffer_count_[as_size(packet.source)];
  if (count == slab_stride_) grow_stride(2 * slab_stride_);
  const std::size_t at =
      as_size(packet.source) * as_size(slab_stride_) + as_size(count);
  slab_id_[at] = packet.id;
  slab_source_[at] = packet.source;
  slab_destination_[at] = packet.destination;
  slab_size_[at] = packet.size;
  slab_hops_[at] = packet.hops;
  buffer_count_[as_size(packet.source)] = count + 1;
  ++packet_count_;
}

bool Network::execute(const FlatSchedule& schedule) {
  ScopedAllocationBan ban("Network::execute", steady_banned_);
  for (int s = 0; s < schedule.slot_count(); ++s) {
    if (!execute_slot(schedule.slot(s))) return false;
  }
  return true;
}

bool Network::execute_slot(Span<const Transmission> transmissions) {
  if (!ok()) return false;
  const long long slot_index = stats_.slots_executed;
  const int n = topo_.processor_count();
  ++epoch_;
  touched_sources_.clear();
  long long busy_couplers = 0;

  // --- Validation pass: nothing is moved until the whole slot checks
  // out against the optical model. Range checks are fused in, so the
  // slot iterates `transmissions` twice in total (validate, commit).
  for (const Transmission& t : transmissions) {
    if (t.source < 0 || t.source >= n) {
      return fail("slot ", slot_index, ": source processor ", t.source,
                  " out of range");
    }
    if (t.destination < 0 || t.destination >= n) {
      return fail("slot ", slot_index, ": destination processor ",
                  t.destination, " out of range");
    }
    const int src_group = topo_.group_of(t.source);
    const int dst_group = topo_.group_of(t.destination);
    const int coupler = topo_.coupler(dst_group, src_group);

    // One packet per transmitting processor (multicast onto several
    // couplers is the same packet on each).
    if (source_stamp_[as_size(t.source)] != epoch_) {
      source_stamp_[as_size(t.source)] = epoch_;
      packet_of_source_[as_size(t.source)] = t.packet;
      touched_sources_.push_back(t.source);
    } else if (packet_of_source_[as_size(t.source)] != t.packet) {
      return fail("slot ", slot_index, ": processor ", t.source,
                  " transmits two different packets (",
                  packet_of_source_[as_size(t.source)], " and ", t.packet,
                  ")");
    }
    // One transmitter per coupler.
    if (coupler_stamp_[as_size(coupler)] != epoch_) {
      coupler_stamp_[as_size(coupler)] = epoch_;
      source_of_coupler_[as_size(coupler)] = t.source;
      ++busy_couplers;
    } else if (source_of_coupler_[as_size(coupler)] != t.source) {
      return fail("slot ", slot_index, ": coupler c(", dst_group, ",",
                  src_group, ") oversubscribed by processors ",
                  source_of_coupler_[as_size(coupler)], " and ", t.source);
    }
    // One tuned coupler per receiver.
    if (receiver_stamp_[as_size(t.destination)] == epoch_) {
      return fail("slot ", slot_index, ": processor ", t.destination,
                  " tunes to more than one coupler");
    }
    receiver_stamp_[as_size(t.destination)] = epoch_;
  }

  // Resolve each transmitting processor's packet in its slab row.
  const int* slab_id = slab_id_.data();
  for (const int source : touched_sources_) {
    const int count = buffer_count_[as_size(source)];
    const int packet_id = packet_of_source_[as_size(source)];
    if (packet_id == -1) {
      if (count != 1) {
        return fail("slot ", slot_index, ": processor ", source,
                    " asked to send 'any' packet but holds ", count);
      }
      buffer_index_of_source_[as_size(source)] = 0;
      continue;
    }
    const int* id = slab_id + as_size(source) * as_size(slab_stride_);
    int found = count;
    for (int i = 0; i < count; ++i) {
      if (id[i] == packet_id) {
        found = i;
        break;
      }
    }
    if (found == count) {
      return fail("slot ", slot_index, ": processor ", source,
                  " does not hold packet ", packet_id);
    }
    buffer_index_of_source_[as_size(source)] = found;
  }

  // --- Commit pass: withdraw every transmitted packet (swap-and-pop
  // with the row's last packet — buffer order carries no semantics),
  // then deliver one copy per tuned receiver. ---
  for (const int source : touched_sources_) {
    const std::size_t base =
        as_size(source) * as_size(slab_stride_);
    const std::size_t at =
        base + as_size(buffer_index_of_source_[as_size(source)]);
    in_flight_[as_size(source)] =
        Packet{slab_id_[at], slab_source_[at], slab_destination_[at],
               slab_size_[at], slab_hops_[at]};
    const int last = buffer_count_[as_size(source)] - 1;
    const std::size_t back = base + as_size(last);
    slab_id_[at] = slab_id_[back];
    slab_source_[at] = slab_source_[back];
    slab_destination_[at] = slab_destination_[back];
    slab_size_[at] = slab_size_[back];
    slab_hops_[at] = slab_hops_[back];
    buffer_count_[as_size(source)] = last;
    --packet_count_;
  }
  for (const Transmission& t : transmissions) {
    const Packet& packet = in_flight_[as_size(t.source)];
    const int count = buffer_count_[as_size(t.destination)];
    if (count == slab_stride_) grow_stride(2 * slab_stride_);
    const std::size_t at =
        as_size(t.destination) * as_size(slab_stride_) + as_size(count);
    slab_id_[at] = packet.id;
    slab_source_[at] = packet.source;
    slab_destination_[at] = packet.destination;
    slab_size_[at] = packet.size;
    slab_hops_[at] = packet.hops + 1;
    buffer_count_[as_size(t.destination)] = count + 1;
    ++packet_count_;
    ++stats_.packets_moved;
  }

  stats_.slots_executed += 1;
  stats_.coupler_slots_busy += busy_couplers;
  stats_.coupler_slot_capacity += topo_.coupler_count();
  return true;
}

bool Network::all_delivered() const {
  const int* destination = slab_destination_.data();
  for (int p = 0; p < topo_.processor_count(); ++p) {
    const int* row = destination + as_size(p) * as_size(slab_stride_);
    const int count = buffer_count_[as_size(p)];
    for (int i = 0; i < count; ++i) {
      if (row[i] != p) return false;
    }
  }
  return true;
}

std::size_t Network::scratch_capacity() const {
  return buffer_count_.capacity() + slab_id_.capacity() +
         slab_source_.capacity() + slab_destination_.capacity() +
         slab_size_.capacity() + slab_hops_.capacity() +
         source_stamp_.capacity() + coupler_stamp_.capacity() +
         receiver_stamp_.capacity() + packet_of_source_.capacity() +
         source_of_coupler_.capacity() +
         buffer_index_of_source_.capacity() + in_flight_.capacity() +
         touched_sources_.capacity();
}

void Network::reserve_buffers(int per_processor) {
  POPS_CHECK(per_processor >= 0,
             "reserve_buffers needs a nonnegative capacity");
  grow_stride(per_processor);
}

}  // namespace pops
