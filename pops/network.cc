#include "pops/network.h"

#include <algorithm>
#include <cstdint>

namespace pops {
namespace {

// The id index starts at 2^4 slots and doubles; a 32-bit Fibonacci
// hash keeps its top log2(size) bits.
constexpr int kMinIdSlotsLog2 = 4;

}  // namespace

Network::Network(const Topology& topo)
    : topo_(topo),
      id_index_(std::size_t{1} << kMinIdSlotsLog2, IdSlot{0, -1}),
      id_shift_(32 - kMinIdSlotsLog2),
      senders_(as_size(topo.processor_count()), Sender{0, -1, -1}),
      drivers_(as_size(topo.coupler_count()), Driver{0, -1}),
      receiver_stamp_(as_size(topo.processor_count()), 0) {
  // Permutation traffic, one packet per processor, never grows storage.
  reserve_packets(topo.processor_count());
}

void Network::reset() {
  clear_packets();
  stats_ = NetworkStats{};
  failure_.clear();
}

void Network::clear_packets() {
  packets_.clear();
  next_same_id_.clear();
  if (id_count_ > 0) {
    std::fill(id_index_.begin(), id_index_.end(), IdSlot{0, -1});
    id_count_ = 0;
  }
}

std::size_t Network::id_slot(int id) const {
  const std::size_t mask = id_index_.size() - 1;
  std::size_t slot =
      (static_cast<std::uint32_t>(id) * std::uint32_t{0x9E3779B9}) >>
      id_shift_;
  while (id_index_[slot].record >= 0 && id_index_[slot].id != id) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void Network::reserve_ids(int ids) {
  std::size_t size = id_index_.size();
  if (2 * as_size(ids) <= size) return;
  while (size < 2 * as_size(ids)) {
    size *= 2;
    --id_shift_;
  }
  std::vector<IdSlot> old(size, IdSlot{0, -1});
  old.swap(id_index_);
  for (const IdSlot& entry : old) {
    if (entry.record >= 0) id_index_[id_slot(entry.id)] = entry;
  }
}

int Network::append_record(Packet packet, int at) {
  const int record = as_int(packets_.size());
  // Field by field: copying a whole temporary record stalls on store
  // forwarding. `packet` is a copy, so it survives a reallocation.
  HeldPacket& held = packets_.emplace_back();
  held.packet = packet;
  held.at = at;
  return record;
}

int Network::find_packet(int processor, int packet_id) const {
  for (int r = id_index_[id_slot(packet_id)].record; r >= 0;
       r = next_same_id_[as_size(r)]) {
    if (packets_[as_size(r)].at == processor) return r;
  }
  return -1;
}

int Network::only_packet(int processor) const {
  int only = -1;
  for (std::size_t r = 0; r < packets_.size(); ++r) {
    if (packets_[r].at != processor) continue;
    if (only >= 0) return -1;
    only = as_int(r);
  }
  return only;
}

void Network::load_permutation_traffic(const Permutation& pi) {
  POPS_CHECK(pi.size() == topo_.processor_count(),
             "permutation size does not match the topology");
  // Writes the records and the index directly: sources are the loop
  // variable and a Permutation's images are in range by construction,
  // so load_packet's range checks would be dead, and the ids are
  // distinct, so no id chains form.
  clear_packets();
  const int n = pi.size();
  reserve_ids(n);
  packets_.resize(as_size(n));
  next_same_id_.assign(as_size(n), -1);
  for (int source = 0; source < n; ++source) {
    HeldPacket& held = packets_[as_size(source)];
    held.packet = Packet{source, source, pi(source), 1, 0};
    held.at = source;
    id_index_[id_slot(source)] = IdSlot{source, source};
  }
  id_count_ = n;
  failure_.clear();
}

void Network::load_packets(Span<const Transmission> packets) {
  const int n = topo_.processor_count();
  const int count = packets.count();
  clear_packets();
  reserve_ids(count);
  packets_.resize(as_size(count));
  next_same_id_.resize(as_size(count));
  HeldPacket* held = packets_.data();
  int* next = next_same_id_.data();
  for (int r = 0; r < count; ++r) {
    const Transmission& t = packets.data()[r];
    POPS_CHECK(t.source >= 0 && t.source < n,
               "load_packets: source out of range");
    POPS_CHECK(t.destination >= -1 && t.destination < n,
               "load_packets: destination out of range");
    held[r].packet = Packet{t.packet, t.source, t.destination, 1, 0};
    held[r].at = t.source;
    // As load_packet: the newest record heads its id's chain.
    IdSlot& entry = id_index_[id_slot(t.packet)];
    if (entry.record < 0) {
      entry.id = t.packet;
      ++id_count_;
    }
    next[r] = entry.record;
    entry.record = r;
  }
  failure_.clear();
}

void Network::load_packet(Packet packet) {
  POPS_CHECK(packet.source >= 0 &&
                 packet.source < topo_.processor_count(),
             "load_packet: source out of range");
  POPS_CHECK(packet.destination >= -1 &&
                 packet.destination < topo_.processor_count(),
             "load_packet: destination out of range");
  const int record = append_record(packet, packet.source);
  std::size_t slot = id_slot(packet.id);
  if (id_index_[slot].record < 0) {
    if (2 * as_size(id_count_ + 1) > id_index_.size()) {
      reserve_ids(id_count_ + 1);
      slot = id_slot(packet.id);
    }
    id_index_[slot].id = packet.id;
    ++id_count_;
  }
  next_same_id_.push_back(id_index_[slot].record);
  id_index_[slot].record = record;
}

bool Network::execute(const FlatSchedule& schedule) {
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
  long long busy_couplers = 0;
  int unresolved = -1;  // first sender whose packet is missing

  // --- Pass 1: check every transmission against the optical model and
  // resolve each sender's packet record. Nothing moves, so a rejected
  // slot leaves the network as it was.
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
    // couplers is the same packet on each). Its record is looked up at
    // first sight; a missing packet is reported only after the whole
    // slot passes the rule checks.
    Sender& sender = senders_[as_size(t.source)];
    if (sender.stamp != epoch_) {
      sender.stamp = epoch_;
      sender.packet = t.packet;
      sender.record = t.packet == -1 ? only_packet(t.source)
                                     : find_packet(t.source, t.packet);
      if (sender.record < 0 && unresolved < 0) unresolved = t.source;
    } else if (sender.packet != t.packet) {
      return fail("slot ", slot_index, ": processor ", t.source,
                  " transmits two different packets (", sender.packet,
                  " and ", t.packet, ")");
    }
    // One transmitter per coupler.
    Driver& driver = drivers_[as_size(coupler)];
    if (driver.stamp != epoch_) {
      driver.stamp = epoch_;
      driver.source = t.source;
      ++busy_couplers;
    } else if (driver.source != t.source) {
      return fail("slot ", slot_index, ": coupler c(", dst_group, ",",
                  src_group, ") oversubscribed by processors ",
                  driver.source, " and ", t.source);
    }
    // One tuned coupler per receiver.
    if (receiver_stamp_[as_size(t.destination)] == epoch_) {
      return fail("slot ", slot_index, ": processor ", t.destination,
                  " tunes to more than one coupler");
    }
    receiver_stamp_[as_size(t.destination)] = epoch_;
  }
  if (unresolved >= 0) {
    const int packet_id = senders_[as_size(unresolved)].packet;
    if (packet_id == -1) {
      const auto held = std::count_if(
          packets_.begin(), packets_.end(),
          [unresolved](const HeldPacket& p) { return p.at == unresolved; });
      return fail("slot ", slot_index, ": processor ", unresolved,
                  " asked to send 'any' packet but holds ", held);
    }
    return fail("slot ", slot_index, ": processor ", unresolved,
                " does not hold packet ", packet_id);
  }

  // --- Pass 2: commit. A sender's first transmission moves its packet
  // to the receiver; each further one (multicast) delivers a copy.
  for (const Transmission& t : transmissions) {
    int& record = senders_[as_size(t.source)].record;
    if (record >= 0) {
      HeldPacket& held = packets_[as_size(record)];
      held.at = t.destination;
      ++held.packet.hops;
      record = ~record;  // moved: the sender's later transmissions copy it
    } else {
      // The copy joins its original's id chain, so execute() never
      // touches the id index.
      const int original = ~record;
      const int copy =
          append_record(packets_[as_size(original)].packet, t.destination);
      const int next = next_same_id_[as_size(original)];
      next_same_id_.push_back(next);
      next_same_id_[as_size(original)] = copy;
    }
  }

  stats_.slots_executed += 1;
  stats_.packets_moved += static_cast<long long>(transmissions.size());
  stats_.coupler_slots_busy += busy_couplers;
  stats_.coupler_slot_capacity += topo_.coupler_count();
  return true;
}

const HeldPacket* Network::lowest_stranded() const {
  const HeldPacket* stranded = nullptr;
  for (const HeldPacket& held : packets_) {
    if (held.packet.destination != held.at &&
        (stranded == nullptr || held.at < stranded->at)) {
      stranded = &held;
    }
  }
  return stranded;
}

bool Network::all_delivered() const { return lowest_stranded() == nullptr; }

std::string Network::stranded() const {
  const HeldPacket* stranded = lowest_stranded();
  if (stranded == nullptr) return "";
  const Packet& packet = stranded->packet;
  return str_cat("packet ", packet.id, " (", packet.source, " -> ",
                 packet.destination, ") stranded at processor ",
                 stranded->at, " after ", stats_.slots_executed, " slots");
}

PacketBuffer Network::buffer(int processor) const {
  POPS_CHECK(processor >= 0 && processor < topo_.processor_count(),
             "buffer: processor out of range");
  std::vector<Packet> packets;
  for (const HeldPacket& held : packets_) {
    if (held.at == processor) packets.push_back(held.packet);
  }
  return PacketBuffer(std::move(packets));
}

std::size_t Network::scratch_capacity() const {
  return packets_.capacity() + next_same_id_.capacity() +
         id_index_.capacity() + senders_.capacity() + drivers_.capacity() +
         receiver_stamp_.capacity();
}

void Network::reserve_packets(int count) {
  POPS_CHECK(count >= 0, "reserve_packets needs a nonnegative count");
  packets_.reserve(as_size(count));
  next_same_id_.reserve(as_size(count));
  reserve_ids(count);
}

}  // namespace pops
