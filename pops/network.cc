#include "pops/network.h"

#include <algorithm>
#include <cstdint>

namespace pops {

Network::Network(const Topology& topo)
    : topo_(topo),
      head_(1, -1),
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
  if (packets_.empty()) return;
  std::fill(head_.begin(), head_.end(), -1);
  packets_.clear();
  next_.clear();
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

void Network::link(int r) {
  int& head = head_[bucket(packets_[as_size(r)].packet.id)];
  next_[as_size(r)] = head;
  head = r;
}

void Network::reserve_buckets(int count) {
  std::size_t size = head_.size();
  if (as_size(count) <= size) return;
  while (size < as_size(count)) size *= 2;
  head_.assign(size, -1);
  for (int r = 0; r < packet_count(); ++r) link(r);
}

int Network::find_packet(int processor, int packet_id) const {
  for (int r = head_[bucket(packet_id)]; r >= 0; r = next_[as_size(r)]) {
    const HeldPacket& held = packets_[as_size(r)];
    if (held.packet.id == packet_id && held.at == processor) return r;
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

template <typename PacketOf>
void Network::load_all(int count, PacketOf packet_of) {
  clear_packets();
  reserve_buckets(count);
  packets_.resize(as_size(count));
  next_.resize(as_size(count));
  HeldPacket* held = packets_.data();
  int* next = next_.data();
  int* head = head_.data();
  for (int r = 0; r < count; ++r) {
    const Transmission t = packet_of(r);
    held[r].packet = Packet{t.packet, t.source, t.destination, 1, 0};
    held[r].at = t.source;
    // As load_packet: the newest record heads its bucket's chain.
    int& first = head[bucket(t.packet)];
    next[r] = first;
    first = r;
  }
  failure_.clear();
}

void Network::load_permutation_traffic(const Permutation& pi) {
  POPS_CHECK(pi.size() == topo_.processor_count(),
             "permutation size does not match the topology");
  // A Permutation's images are in range by construction, so
  // load_packet's range checks would be dead.
  const int* image = pi.images().data();
  load_all(pi.size(), [image](int source) {
    return Transmission{source, image[source], source};
  });
}

void Network::load_packets(Span<const Transmission> packets) {
  const int n = topo_.processor_count();
  const Transmission* packet = packets.data();
  load_all(packets.count(), [packet, n](int r) {
    const Transmission& t = packet[r];
    POPS_CHECK(t.source >= 0 && t.source < n,
               "load_packets: source out of range");
    POPS_CHECK(t.destination >= -1 && t.destination < n,
               "load_packets: destination out of range");
    return t;
  });
}

void Network::load_packet(Packet packet) {
  POPS_CHECK(packet.source >= 0 &&
                 packet.source < topo_.processor_count(),
             "load_packet: source out of range");
  POPS_CHECK(packet.destination >= -1 &&
                 packet.destination < topo_.processor_count(),
             "load_packet: destination out of range");
  // Past the bucket count (multicast copies count too), the buckets
  // double.
  if (packets_.size() >= head_.size()) reserve_buckets(packet_count() + 1);
  const int record = append_record(packet, packet.source);
  next_.push_back(-1);
  link(record);
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
      // The copy joins its original's chain right after it, so
      // execute() never touches the buckets.
      const int original = ~record;
      const int copy =
          append_record(packets_[as_size(original)].packet, t.destination);
      next_.push_back(next_[as_size(original)]);
      next_[as_size(original)] = copy;
    }
  }

  stats_.slots_executed += 1;
  stats_.packets_moved += static_cast<long long>(transmissions.size());
  stats_.coupler_slots_busy += busy_couplers;
  stats_.coupler_slot_capacity += topo_.coupler_count();
  return true;
}

const Network::HeldPacket* Network::lowest_stranded() const {
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

bool Network::delivers(Span<const Transmission> packets,
                       const FlatSchedule& schedule) {
  reset();
  load_packets(packets);
  return execute(schedule) && all_delivered();
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
  return packets_.capacity() + next_.capacity() + head_.capacity() +
         senders_.capacity() + drivers_.capacity() +
         receiver_stamp_.capacity();
}

void Network::reserve_packets(int count) {
  POPS_CHECK(count >= 0, "reserve_packets needs a nonnegative count");
  packets_.reserve(as_size(count));
  next_.reserve(as_size(count));
  reserve_buckets(count);
}

}  // namespace pops
