#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "perm/families.h"
#include "pops/network.h"
#include "support/format.h"
#include "support/prng.h"
#include "tests/testing.h"

namespace pops {
namespace {

POPS_TEST(TopologyBasics) {
  const Topology topo(3, 4);
  EXPECT_EQ(topo.d(), 3);
  EXPECT_EQ(topo.g(), 4);
  EXPECT_EQ(topo.processor_count(), 12);
  EXPECT_EQ(topo.coupler_count(), 16);
  EXPECT_EQ(topo.group_of(0), 0);
  EXPECT_EQ(topo.group_of(11), 3);
  EXPECT_EQ(topo.index_in_group(7), 1);
  EXPECT_EQ(topo.processor(2, 1), 7);
  EXPECT_EQ(topo.coupler(3, 1), 13);
  EXPECT_EQ(topo.to_string(), "POPS(3,4)");
}

POPS_TEST(GroupOfDividesExactlyOnEveryShape) {
  // group_of divides by d with a multiply and a shift; it must equal
  // p / d for every processor, so check the ends of the range, both
  // sides of group boundaries and a seeded sample, on divisors around
  // powers of two and up to INT_MAX.
  constexpr int kMax = std::numeric_limits<int>::max();
  Rng rng(29);
  for (const int d : {1, 2, 3, 7, 31, 32, 33, 65535, 65536, 65537,
                      kMax / 2, kMax / 2 + 1, kMax}) {
    for (const int g : {1, 2, 3, 64, 46340}) {
      if (d > kMax / g || g > kMax / g) continue;
      const Topology topo(d, g);
      const int n = topo.processor_count();
      std::vector<int> processors = {0, d - 1, n - 1};
      if (g > 1) {
        processors.push_back(d);
        const int boundary = (1 + rng.next_below(g - 1)) * d;
        processors.push_back(boundary - 1);
        processors.push_back(boundary);
      }
      for (int k = 0; k < 64; ++k) processors.push_back(rng.next_below(n));
      for (const int p : processors) {
        const int group = topo.group_of(p);
        EXPECT_EQ(group, p / d);
        EXPECT_EQ(topo.index_in_group(p), p - group * d);
        EXPECT_EQ(topo.processor(group, topo.index_in_group(p)), p);
      }
    }
  }
}

POPS_TEST(CouplerRejectsOutOfRangeGroups) {
  // coupler() is an accessor like any other: out-of-range groups are a
  // caller bug and must trip POPS_CHECK, not silently index a
  // nonexistent coupler.
  const Topology topo(3, 4);
  EXPECT_EQ(topo.coupler(0, 0), 0);
  EXPECT_EQ(topo.coupler(3, 3), 15);
  EXPECT_ABORTS(topo.coupler(-1, 0));
  EXPECT_ABORTS(topo.coupler(0, -1));
  EXPECT_ABORTS(topo.coupler(4, 0));
  EXPECT_ABORTS(topo.coupler(0, 4));
  // Processor ids are not group ids: passing a valid processor id that
  // exceeds the group count must abort too.
  EXPECT_ABORTS(topo.coupler(11, 0));
}

POPS_TEST(TopologyRejectsShapesThatOverflowInt) {
  // n = d * g and the g^2 couplers are ints: a shape whose counts do
  // not fit must abort, not construct with wrapped (zero) counts.
  EXPECT_ABORTS(Topology(1 << 16, 1 << 16));
  EXPECT_ABORTS(Topology(1 << 30, 4));
  EXPECT_ABORTS(Topology(1, 46341));  // 46341^2 > INT_MAX
  const Topology widest(1, 46340);
  EXPECT_EQ(widest.coupler_count(), 46340 * 46340);
  const Topology tallest(std::numeric_limits<int>::max(), 1);
  EXPECT_EQ(tallest.processor_count(), std::numeric_limits<int>::max());
}

POPS_TEST(LoadPermutationTraffic) {
  const Topology topo(2, 2);
  Network net(topo);
  net.load_permutation_traffic(vector_reversal(4));
  EXPECT_EQ(net.packet_count(), 4);
  EXPECT_FALSE(net.all_delivered());
  EXPECT_EQ(net.buffer(1).size(), std::size_t{1});
  EXPECT_EQ(net.buffer(1)[0].destination, 2);
  EXPECT_EQ(net.buffer(1)[0].hops, 0);
}

// Field-by-field equality of two packets.
bool same_packet(const Packet& a, const Packet& b) {
  return a.id == b.id && a.source == b.source &&
         a.destination == b.destination && a.size == b.size &&
         a.hops == b.hops;
}

// True when `a` and `b` hold as many packets, and every processor holds
// the same packets in the same order.
bool same_traffic(const Network& a, const Network& b) {
  if (a.packet_count() != b.packet_count()) return false;
  for (int p = 0; p < a.topology().processor_count(); ++p) {
    const PacketBuffer ba = a.buffer(p);
    const PacketBuffer bb = b.buffer(p);
    if (!std::equal(ba.begin(), ba.end(), bb.begin(), bb.end(),
                    same_packet)) {
      return false;
    }
  }
  return true;
}

POPS_TEST(LoadPacketsMatchesLoadingOneByOne) {
  // One pass over a packet list must leave what reset() and one
  // load_packet per entry leave: the same packets at every processor,
  // found by the same ids, so every slot moves the same packets and
  // fails alike. Processor 1 sends three packets, and id 9 is loaded
  // at processors 1 and 3.
  const Topology topo(2, 3);
  const std::vector<Transmission> packets = {
      {1, 4, 9}, {0, 3, 2}, {1, 5, 7}, {3, 1, 9}, {1, 0, 4}, {5, 2, 11}};
  Network bulk(topo);
  bulk.load_permutation_traffic(vector_reversal(6));
  bulk.load_packets(packets);  // replaces the permutation
  Network single(topo);
  single.load_permutation_traffic(vector_reversal(6));
  single.reset();
  for (const Transmission& t : packets) {
    single.load_packet(Packet{t.packet, t.source, t.destination, 1, 0});
  }
  EXPECT_EQ(bulk.packet_count(), 6);
  EXPECT_TRUE(same_traffic(bulk, single));
  bulk.load_packets(packets);  // loading again replaces, too
  EXPECT_TRUE(same_traffic(bulk, single));

  // Both copies of id 9 move in one slot, each from its own holder;
  // the one processor 3 sent then leaves processor 1 again. Processor 0
  // no longer holds id 2, so both networks reject the last slot with
  // the same diagnostic.
  const std::vector<std::vector<Transmission>> slots = {
      {{1, 4, 9}, {3, 1, 9}, {0, 3, 2}, {5, 2, 11}},
      {{1, 0, 9}, {4, 5, 9}},
      {{0, 5, 2}}};
  for (std::size_t s = 0; s < slots.size(); ++s) {
    const Span<const Transmission> slot(slots[s]);
    const bool executed = bulk.execute_slot(slot);
    EXPECT_EQ(executed, s + 1 < slots.size());
    EXPECT_EQ(single.execute_slot(slot), executed);
    EXPECT_TRUE(same_traffic(bulk, single));
    EXPECT_EQ(bulk.all_delivered(), single.all_delivered());
  }
  EXPECT_EQ(bulk.failure(), single.failure());
  EXPECT_TRUE(bulk.failure().find("does not hold packet 2") !=
              std::string::npos);

  // The range checks of load_packet.
  const std::vector<Transmission> bad_source = {{0, 1, 0}, {6, 1, 1}};
  EXPECT_ABORTS_WITH(bulk.load_packets(bad_source),
                     "load_packets: source out of range");
  const std::vector<Transmission> bad_destination = {{0, 6, 0}};
  EXPECT_ABORTS_WITH(bulk.load_packets(bad_destination),
                     "load_packets: destination out of range");
}

POPS_TEST(SingleSlotDelivery) {
  // POPS(1, 4): any permutation routes in one slot.
  const Topology topo(1, 4);
  Network net(topo);
  net.load_permutation_traffic(vector_reversal(4));
  SlotPlan slot;
  for (int p = 0; p < 4; ++p) {
    slot.transmissions.push_back(Transmission{p, 3 - p, p});
  }
  EXPECT_TRUE(net.execute_slot(slot));
  EXPECT_TRUE(net.ok());
  EXPECT_TRUE(net.all_delivered());
  EXPECT_EQ(net.buffer(3)[0].hops, 1);
  EXPECT_EQ(net.stats().slots_executed, 1LL);
  EXPECT_EQ(net.stats().packets_moved, 4LL);
  // All four used couplers are off-diagonal plus... exactly 4 busy.
  EXPECT_EQ(net.stats().coupler_slots_busy, 4LL);
  EXPECT_EQ(net.stats().coupler_slot_capacity, 16LL);
  EXPECT_TRUE(net.stats().average_coupler_utilization() > 0.24);
}

POPS_TEST(MulticastFromOneTransmitter) {
  // One source drives two couplers with the same packet (optical
  // multicast to two groups).
  const Topology topo(2, 2);
  Network net(topo);
  net.load_packet(Packet{7, 0, -1, 1, 0});
  SlotPlan slot;
  slot.transmissions.push_back(Transmission{0, 1, 7});
  slot.transmissions.push_back(Transmission{0, 2, 7});
  EXPECT_TRUE(net.execute_slot(slot));
  EXPECT_EQ(net.buffer(1).size(), std::size_t{1});
  EXPECT_EQ(net.buffer(2).size(), std::size_t{1});
  EXPECT_EQ(net.buffer(0).size(), std::size_t{0});
  EXPECT_EQ(net.packet_count(), 2);
}

POPS_TEST(MulticastAcrossManyCouplersInOneSlot) {
  // Optical multicast at full fan-out: one transmitter drives all g
  // couplers of its source-group column with the same packet in a
  // single slot, and every processor receives a copy.
  const Topology topo(2, 4);
  Network net(topo);
  net.load_packet(Packet{5, 3, -1, 1, 0});
  SlotPlan slot;
  for (int p = 0; p < topo.processor_count(); ++p) {
    slot.transmissions.push_back(Transmission{3, p, 5});
  }
  EXPECT_TRUE(net.execute_slot(slot));
  EXPECT_TRUE(net.ok());
  EXPECT_EQ(net.packet_count(), topo.processor_count());
  for (int p = 0; p < topo.processor_count(); ++p) {
    EXPECT_EQ(net.buffer(p).size(), std::size_t{1});
    EXPECT_EQ(net.buffer(p)[0].id, 5);
    EXPECT_EQ(net.buffer(p)[0].hops, 1);
  }
  // Exactly the g couplers of source group 1 were busy.
  EXPECT_EQ(net.stats().coupler_slots_busy,
            static_cast<long long>(topo.g()));
}

POPS_TEST(RejectsTwoDifferentPacketsFromOneSource) {
  // The dual of multicast: a processor may drive several couplers only
  // with the SAME packet; two different packet ids in one slot violate
  // the one-transmission-per-processor rule. Exercises the flat
  // Span-based execute_slot path directly.
  const Topology topo(2, 2);
  Network net(topo);
  net.load_packet(Packet{0, 0, 2, 1, 0});
  net.load_packet(Packet{1, 0, 1, 1, 0});
  const std::vector<Transmission> transmissions = {
      Transmission{0, 2, 0}, Transmission{0, 1, 1}};
  EXPECT_FALSE(net.execute_slot(Span<const Transmission>(transmissions)));
  EXPECT_TRUE(net.failure().find("two different packets") !=
              std::string::npos);
  // Nothing moved: the slot was rejected atomically.
  EXPECT_EQ(net.buffer(0).size(), std::size_t{2});
}

POPS_TEST(ExecutesFlatSchedules) {
  // The FlatSchedule path is slot-for-slot equivalent to the nested
  // one.
  const Topology topo(1, 4);
  const Permutation pi = vector_reversal(4);
  FlatSchedule schedule;
  schedule.begin_slot();
  for (int p = 0; p < 4; ++p) {
    schedule.push(Transmission{p, 3 - p, p});
  }
  EXPECT_EQ(schedule.slot_count(), 1);
  EXPECT_EQ(schedule.transmission_count(), 4);
  EXPECT_EQ(schedule.transmissions().size(), std::size_t{4});
  EXPECT_EQ(schedule.slot(0)[0].destination, 3);
  Network net(topo);
  net.load_permutation_traffic(pi);
  EXPECT_TRUE(net.execute(schedule));
  EXPECT_TRUE(net.all_delivered());
  EXPECT_EQ(net.stats().packets_moved, 4LL);
}

POPS_TEST(RejectsCouplerOversubscription) {
  const Topology topo(2, 2);
  Network net(topo);
  net.load_permutation_traffic(vector_reversal(4));
  // Packets 0 (0 -> 3) and 1 (1 -> 2) both need coupler c(1, 0).
  SlotPlan slot;
  slot.transmissions.push_back(Transmission{0, 3, 0});
  slot.transmissions.push_back(Transmission{1, 2, 1});
  EXPECT_FALSE(net.execute_slot(slot));
  EXPECT_FALSE(net.ok());
  EXPECT_TRUE(net.failure().find("oversubscribed") != std::string::npos);
  // The failure is sticky and nothing moved.
  EXPECT_EQ(net.buffer(0).size(), std::size_t{1});
  EXPECT_FALSE(net.execute_slot(SlotPlan{}));
}

POPS_TEST(RejectsDoubleSendAndDoubleReceive) {
  const Topology topo(2, 2);
  {
    Network net(topo);
    net.load_packet(Packet{0, 0, 2, 1, 0});
    net.load_packet(Packet{1, 0, 1, 1, 0});
    SlotPlan slot;
    slot.transmissions.push_back(Transmission{0, 2, 0});
    slot.transmissions.push_back(Transmission{0, 1, 1});
    EXPECT_FALSE(net.execute_slot(slot));
    EXPECT_TRUE(net.failure().find("two different packets") !=
                std::string::npos);
  }
  {
    Network net(topo);
    net.load_packet(Packet{0, 0, 3, 1, 0});
    net.load_packet(Packet{1, 2, 3, 1, 0});
    // Sources sit in different groups, so the couplers are distinct and
    // the double-receive at processor 3 is the first violation.
    SlotPlan slot;
    slot.transmissions.push_back(Transmission{0, 3, 0});
    slot.transmissions.push_back(Transmission{2, 3, 1});
    EXPECT_FALSE(net.execute_slot(slot));
    EXPECT_TRUE(net.failure().find("more than one coupler") !=
                std::string::npos);
  }
}

POPS_TEST(RejectsPhantomPacket) {
  const Topology topo(2, 2);
  Network net(topo);
  net.load_permutation_traffic(Permutation::identity(4));
  SlotPlan slot;
  slot.transmissions.push_back(Transmission{0, 1, 99});
  EXPECT_FALSE(net.execute_slot(slot));
  EXPECT_TRUE(net.failure().find("does not hold packet 99") !=
              std::string::npos);
}

POPS_TEST(WithdrawalOrderCarriesNoSemantics) {
  // Sending a packet may reorder what its processor still holds:
  // buffer() lists a processor's packets in no particular order.
  // Delivery resolves packets by id, so that order must never be
  // observable.
  const Topology topo(2, 2);
  Network net(topo);
  net.load_packet(Packet{10, 0, 1, 1, 0});
  net.load_packet(Packet{11, 0, 2, 1, 0});
  net.load_packet(Packet{12, 0, 3, 1, 0});
  SlotPlan first;
  first.transmissions.push_back(Transmission{0, 1, 10});
  EXPECT_TRUE(net.execute_slot(first));
  EXPECT_EQ(net.buffer(0).size(), std::size_t{2});
  bool seen11 = false;
  bool seen12 = false;
  for (const Packet& packet : net.buffer(0)) {
    seen11 = seen11 || packet.id == 11;
    seen12 = seen12 || packet.id == 12;
  }
  EXPECT_TRUE(seen11);
  EXPECT_TRUE(seen12);
  SlotPlan second;
  second.transmissions.push_back(Transmission{0, 2, 11});
  EXPECT_TRUE(net.execute_slot(second));
  SlotPlan third;
  third.transmissions.push_back(Transmission{0, 3, 12});
  EXPECT_TRUE(net.execute_slot(third));
  EXPECT_TRUE(net.all_delivered());
  EXPECT_EQ(net.buffer(1)[0].id, 10);
  EXPECT_EQ(net.buffer(2)[0].id, 11);
  EXPECT_EQ(net.buffer(3)[0].id, 12);
}

POPS_TEST(AnyPacketSendRequiresExactlyOnePacket) {
  // The destination == -1 "any" path is only legal when the buffer
  // holds exactly one packet, so it cannot observe buffer order either
  // — together with the lookup-by-id path this makes buffer order
  // fully unobservable.
  const Topology topo(2, 2);
  {
    Network net(topo);
    net.load_packet(Packet{20, 0, -1, 1, 0});
    net.load_packet(Packet{21, 0, -1, 1, 0});
    SlotPlan slot;
    slot.transmissions.push_back(Transmission{0, 1, -1});
    EXPECT_FALSE(net.execute_slot(slot));
    EXPECT_TRUE(net.failure().find(
                    "asked to send 'any' packet but holds 2") !=
                std::string::npos);
  }
  {
    // After a by-id withdrawal leaves exactly one packet, "any"
    // succeeds on the survivor.
    Network net(topo);
    net.load_packet(Packet{20, 0, 1, 1, 0});
    net.load_packet(Packet{21, 0, -1, 1, 0});
    SlotPlan first;
    first.transmissions.push_back(Transmission{0, 1, 20});
    EXPECT_TRUE(net.execute_slot(first));
    SlotPlan any;
    any.transmissions.push_back(Transmission{0, 2, -1});
    EXPECT_TRUE(net.execute_slot(any));
    EXPECT_EQ(net.buffer(2).size(), std::size_t{1});
    EXPECT_EQ(net.buffer(2)[0].id, 21);
  }
}

POPS_TEST(RejectsOutOfRangeTransmissionsAtomically) {
  // Range checks are fused into the validation pass; a bad entry after
  // valid ones must still reject the whole slot with nothing moved.
  const Topology topo(2, 2);
  Network net(topo);
  net.load_permutation_traffic(vector_reversal(4));
  SlotPlan slot;
  slot.transmissions.push_back(Transmission{0, 3, 0});
  slot.transmissions.push_back(Transmission{4, 0, 1});
  EXPECT_FALSE(net.execute_slot(slot));
  EXPECT_TRUE(net.failure().find("source processor 4 out of range") !=
              std::string::npos);
  EXPECT_EQ(net.buffer(0).size(), std::size_t{1});

  Network net2(topo);
  net2.load_permutation_traffic(vector_reversal(4));
  SlotPlan bad_destination;
  bad_destination.transmissions.push_back(Transmission{0, -1, 0});
  EXPECT_FALSE(net2.execute_slot(bad_destination));
  EXPECT_TRUE(net2.failure().find(
                  "destination processor -1 out of range") !=
              std::string::npos);
}

POPS_TEST(ManyPacketsAtOneProcessorKeepEveryBufferIntact) {
  // Nine packets queue at one processor while three others hold one
  // each; every processor must still report exactly its own packets.
  const Topology topo(2, 2);
  Network net(topo);
  net.load_packet(Packet{1, 0, 3, 1, 0});
  net.load_packet(Packet{2, 2, 3, 1, 0});
  net.load_packet(Packet{3, 3, 0, 1, 0});
  for (int k = 0; k < 9; ++k) {
    net.load_packet(Packet{10 + k, 1, k % 4, 1, 0});
  }
  EXPECT_EQ(net.packet_count(), 12);
  EXPECT_EQ(net.buffer(0).size(), std::size_t{1});
  EXPECT_EQ(net.buffer(0)[0].id, 1);
  EXPECT_EQ(net.buffer(2).size(), std::size_t{1});
  EXPECT_EQ(net.buffer(2)[0].id, 2);
  EXPECT_EQ(net.buffer(3).size(), std::size_t{1});
  EXPECT_EQ(net.buffer(3)[0].id, 3);
  EXPECT_EQ(net.buffer(1).size(), std::size_t{9});
  bool seen[9] = {};
  for (const Packet& packet : net.buffer(1)) {
    seen[packet.id - 10] = true;
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

POPS_TEST(ResetAndReloadClearFailures) {
  const Topology topo(2, 2);
  Network net(topo);
  net.load_permutation_traffic(Permutation::identity(4));
  SlotPlan bad;
  bad.transmissions.push_back(Transmission{0, 1, 99});
  EXPECT_FALSE(net.execute_slot(bad));
  net.load_permutation_traffic(Permutation::identity(4));
  EXPECT_TRUE(net.ok());
  EXPECT_TRUE(net.all_delivered());  // identity: loaded at destination
  net.reset();
  EXPECT_EQ(net.packet_count(), 0);
  EXPECT_EQ(net.stats().slots_executed, 0LL);
}

POPS_TEST(StrandedNamesThePacketAtTheLowestProcessor) {
  // The delivery verdict every verifier ends with. all_delivered() must
  // agree with it after every step.
  const Topology topo(2, 2);
  {
    // Two slots leave packets 1 and 2 off their destinations. Packet 1
    // has the earlier record, but packet 2 is held at the lower
    // processor, so the verdict names packet 2.
    Network net(topo);
    net.load_permutation_traffic(vector_reversal(4));  // 0->3 1->2 2->1 3->0
    EXPECT_EQ(net.all_delivered(), net.stranded().empty());
    EXPECT_EQ(net.stranded(),
              "packet 0 (0 -> 3) stranded at processor 0 after 0 slots");
    SlotPlan first;
    first.transmissions.push_back(Transmission{2, 0, 2});
    first.transmissions.push_back(Transmission{0, 3, 0});
    EXPECT_TRUE(net.execute_slot(first));
    EXPECT_EQ(net.all_delivered(), net.stranded().empty());
    SlotPlan second;
    second.transmissions.push_back(Transmission{3, 0, 3});
    EXPECT_TRUE(net.execute_slot(second));
    EXPECT_FALSE(net.all_delivered());
    EXPECT_EQ(net.all_delivered(), net.stranded().empty());
    EXPECT_EQ(net.stranded(),
              "packet 2 (2 -> 1) stranded at processor 0 after 2 slots");
  }
  {
    // A multicast delivers the original home and leaves its copy at
    // processor 1: the copy is stranded.
    Network net(topo);
    net.load_packet(Packet{7, 0, 3, 1, 0});
    SlotPlan slot;
    slot.transmissions.push_back(Transmission{0, 3, 7});
    slot.transmissions.push_back(Transmission{0, 1, 7});
    EXPECT_TRUE(net.execute_slot(slot));
    EXPECT_EQ(net.buffer(3).size(), std::size_t{1});
    EXPECT_FALSE(net.all_delivered());
    EXPECT_EQ(net.all_delivered(), net.stranded().empty());
    EXPECT_EQ(net.stranded(),
              "packet 7 (0 -> 3) stranded at processor 1 after 1 slots");
  }
  {
    // A schedule that delivers everything.
    const Topology line(1, 4);
    Network net(line);
    net.load_permutation_traffic(vector_reversal(4));
    SlotPlan slot;
    for (int p = 0; p < 4; ++p) {
      slot.transmissions.push_back(Transmission{p, 3 - p, p});
    }
    EXPECT_TRUE(net.execute_slot(slot));
    EXPECT_TRUE(net.all_delivered());
    EXPECT_EQ(net.all_delivered(), net.stranded().empty());
    EXPECT_EQ(net.stranded(), "");
  }
}

POPS_TEST(DeliversNeedsEveryPacketAtItsDestination) {
  // delivers() is the engine's whole check. A schedule that obeys every
  // slot rule but strands a packet must fail it, with ok() still true.
  const Topology topo(2, 2);
  Network net(topo);
  const std::vector<Transmission> packets = {{0, 3, 0}, {1, 2, 1}};
  FlatSchedule strands;
  strands.begin_slot();
  strands.push(Transmission{0, 2, 0});
  EXPECT_FALSE(net.delivers(packets, strands));
  EXPECT_TRUE(net.ok());
  EXPECT_EQ(net.stranded(),
            "packet 1 (1 -> 2) stranded at processor 1 after 1 slots");
  // Both packets cross coupler c(1, 0), so they take a slot each.
  FlatSchedule delivers;
  delivers.begin_slot();
  delivers.push(Transmission{0, 3, 0});
  delivers.begin_slot();
  delivers.push(Transmission{1, 2, 1});
  EXPECT_TRUE(net.delivers(packets, delivers));
  EXPECT_EQ(net.stranded(), "");
  EXPECT_EQ(net.stats().slots_executed, 2LL);
}

// The simulator's contract in its plainest form: one packet list per
// processor. A slot is checked rule by rule in transmission order; then
// each sender's packet is found (in order of first appearance), all of
// them are withdrawn, and every transmission delivers one copy.
class ReferenceNetwork {
 public:
  explicit ReferenceNetwork(const Topology& topo)
      : topo_(topo), held_(as_size(topo.processor_count())) {}

  void reset() {
    for (std::vector<Packet>& packets : held_) packets.clear();
    stats_ = NetworkStats{};
    failure_.clear();
  }
  void load_permutation_traffic(const Permutation& pi) {
    for (int p = 0; p < pi.size(); ++p) {
      held_[as_size(p)] = {Packet{p, p, pi(p), 1, 0}};
    }
    failure_.clear();
  }
  void load_packet(const Packet& packet) {
    held_[as_size(packet.source)].push_back(packet);
  }

  bool execute_slot(const std::vector<Transmission>& slot) {
    if (!failure_.empty()) return false;
    const long long s = stats_.slots_executed;
    const int n = topo_.processor_count();
    std::map<int, int> packet_of;          // sender -> packet id
    std::vector<int> senders;              // by first appearance
    std::map<int, int> source_of_coupler;  // coupler -> sender
    std::set<int> receivers;
    for (const Transmission& t : slot) {
      if (t.source < 0 || t.source >= n) {
        return fail("slot ", s, ": source processor ", t.source,
                    " out of range");
      }
      if (t.destination < 0 || t.destination >= n) {
        return fail("slot ", s, ": destination processor ", t.destination,
                    " out of range");
      }
      const int src_group = topo_.group_of(t.source);
      const int dst_group = topo_.group_of(t.destination);
      const auto sent = packet_of.emplace(t.source, t.packet);
      if (sent.second) {
        senders.push_back(t.source);
      } else if (sent.first->second != t.packet) {
        return fail("slot ", s, ": processor ", t.source,
                    " transmits two different packets (",
                    sent.first->second, " and ", t.packet, ")");
      }
      const auto driven = source_of_coupler.emplace(
          topo_.coupler(dst_group, src_group), t.source);
      if (driven.first->second != t.source) {
        return fail("slot ", s, ": coupler c(", dst_group, ",", src_group,
                    ") oversubscribed by processors ", driven.first->second,
                    " and ", t.source);
      }
      if (!receivers.insert(t.destination).second) {
        return fail("slot ", s, ": processor ", t.destination,
                    " tunes to more than one coupler");
      }
    }
    std::map<int, std::size_t> position_of;  // sender -> its packet
    for (const int sender : senders) {
      const std::vector<Packet>& held = held_[as_size(sender)];
      const int id = packet_of[sender];
      std::size_t k = 0;
      if (id == -1 && held.size() != 1) {
        return fail("slot ", s, ": processor ", sender,
                    " asked to send 'any' packet but holds ", held.size());
      }
      while (id != -1 && k < held.size() && held[k].id != id) ++k;
      if (k == held.size()) {
        return fail("slot ", s, ": processor ", sender,
                    " does not hold packet ", id);
      }
      position_of[sender] = k;
    }
    std::map<int, Packet> in_flight;
    for (const auto& [sender, k] : position_of) {
      std::vector<Packet>& held = held_[as_size(sender)];
      in_flight[sender] = held[k];
      ++in_flight[sender].hops;
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
    }
    for (const Transmission& t : slot) {
      held_[as_size(t.destination)].push_back(in_flight[t.source]);
    }
    stats_.slots_executed += 1;
    stats_.packets_moved += as_int(slot.size());
    stats_.coupler_slots_busy += as_int(source_of_coupler.size());
    stats_.coupler_slot_capacity += topo_.coupler_count();
    return true;
  }

  const std::vector<Packet>& held(int p) const { return held_[as_size(p)]; }
  const NetworkStats& stats() const { return stats_; }
  const std::string& failure() const { return failure_; }

 private:
  template <typename... Parts>
  bool fail(const Parts&... parts) {
    failure_ = str_cat(parts...);
    return false;
  }

  Topology topo_;
  std::vector<std::vector<Packet>> held_;
  NetworkStats stats_;
  std::string failure_;
};

using PacketKey = std::tuple<int, int, int, int, int>;

std::vector<PacketKey> sorted_keys(const std::vector<Packet>& packets) {
  std::vector<PacketKey> keys;
  for (const Packet& p : packets) {
    keys.emplace_back(p.id, p.source, p.destination, p.size, p.hops);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// "" when the simulator and the model agree on everything observable.
std::string first_difference(const Network& net,
                             const ReferenceNetwork& model) {
  const int n = net.topology().processor_count();
  if (net.ok() != model.failure().empty()) return "ok()";
  if (net.failure() != model.failure()) {
    return "failure(): \"" + net.failure() + "\" vs \"" + model.failure() +
           "\"";
  }
  const NetworkStats& a = net.stats();
  const NetworkStats& b = model.stats();
  if (a.slots_executed != b.slots_executed ||
      a.packets_moved != b.packets_moved ||
      a.coupler_slots_busy != b.coupler_slots_busy ||
      a.coupler_slot_capacity != b.coupler_slot_capacity) {
    return "stats()";
  }
  int count = 0;
  bool delivered = true;
  for (int p = 0; p < n; ++p) {
    const std::vector<Packet>& expected = model.held(p);
    count += as_int(expected.size());
    for (const Packet& packet : expected) {
      delivered = delivered && packet.destination == p;
    }
    std::vector<Packet> actual;
    for (const Packet& packet : net.buffer(p)) actual.push_back(packet);
    if (sorted_keys(actual) != sorted_keys(expected)) {
      return str_cat("packets held at processor ", p);
    }
  }
  if (net.packet_count() != count) return "packet_count()";
  if (net.all_delivered() != delivered) return "all_delivered()";
  return "";
}

// Which of two different packets with one id a processor sends is left
// open, so the generated slots never ask.
bool ambiguous(const ReferenceNetwork& model, int n,
               const std::vector<Transmission>& slot) {
  std::set<int> seen;
  for (const Transmission& t : slot) {
    if (t.source < 0 || t.source >= n || t.packet == -1 ||
        !seen.insert(t.source).second) {
      continue;
    }
    std::set<PacketKey> variants;
    for (const Packet& p : model.held(t.source)) {
      if (p.id == t.packet) {
        variants.emplace(p.id, p.source, p.destination, p.size, p.hops);
      }
    }
    if (variants.size() > 1) return true;
  }
  return false;
}

int random_id(Rng& rng, int n) {
  constexpr int kMax = std::numeric_limits<int>::max();
  constexpr int kMin = std::numeric_limits<int>::min();
  switch (rng.next_below(9)) {
    case 0: return -1;
    case 1: return n + rng.next_below(3);
    case 2: return kMax - rng.next_below(3);
    case 3: return -2 - rng.next_below(3);
    case 4: return kMin + rng.next_below(2);
    // Ids whose low 20 bits are 0 share a bucket with id 0.
    case 5: return rng.next_below(4) * (1 << 20);
    case 6: return kMin + rng.next_below(4) * (1 << 20);
    default: return rng.next_below(2 * n);  // duplicates are likely
  }
}

// Mostly legal transmissions (with multicast fan-out and "any" sends)
// from the model's current state, plus at times one transmission that
// breaks a rule, inserted at a random position.
std::vector<Transmission> random_slot(const ReferenceNetwork& model,
                                      const Topology& topo, Rng& rng) {
  const int n = topo.processor_count();
  std::vector<Transmission> slot;
  std::vector<int> source_of_coupler(as_size(topo.coupler_count()), -1);
  std::vector<bool> receiving(as_size(n), false);
  std::vector<int> id_of(as_size(n), 0);
  std::vector<bool> sending(as_size(n), false);
  for (int k = 0; k < n; ++k) {
    const int sender = rng.next_below(n);
    const std::vector<Packet>& held = model.held(sender);
    if (held.empty()) continue;
    int& id = id_of[as_size(sender)];
    if (!sending[as_size(sender)]) {
      sending[as_size(sender)] = true;
      id = held[as_size(rng.next_below(as_int(held.size())))].id;
      if (held.size() == 1 && rng.next_below(4) == 0) id = -1;
    }
    const int copies = rng.next_below(4) == 0 ? 1 + rng.next_below(3) : 1;
    for (int c = 0; c < copies; ++c) {
      const int receiver = rng.next_below(n);
      const int coupler = topo.coupler(topo.group_of(receiver),
                                       topo.group_of(sender));
      const int driver = source_of_coupler[as_size(coupler)];
      if (receiving[as_size(receiver)] || (driver != -1 && driver != sender)) {
        continue;
      }
      receiving[as_size(receiver)] = true;
      source_of_coupler[as_size(coupler)] = sender;
      slot.push_back(Transmission{sender, receiver, id});
    }
  }
  if (rng.next_below(6) != 0) return slot;
  Transmission bad{rng.next_below(n), rng.next_below(n), random_id(rng, n)};
  const Transmission other =
      slot.empty() ? bad : slot[as_size(rng.next_below(as_int(slot.size())))];
  switch (rng.next_below(7)) {
    case 0:  // source out of range
      bad.source = rng.next_below(2) == 0 ? -1 : n;
      break;
    case 1:  // destination out of range
      bad.destination = rng.next_below(2) == 0 ? -1 : n + 1;
      break;
    case 2:  // a second packet from one sender
      bad.source = other.source;
      bad.packet = other.packet ^ 1;  // another id, never overflowing
      break;
    case 3:  // another sender onto a busy coupler
      bad.source = topo.processor(topo.group_of(other.source),
                                  rng.next_below(topo.d()));
      bad.destination = topo.processor(topo.group_of(other.destination),
                                       rng.next_below(topo.d()));
      break;
    case 4:  // a second coupler for one receiver
      bad.destination = other.destination;
      break;
    case 5:  // "any" from a sender holding 0, 1 or more packets
      bad.packet = -1;
      break;
    default:  // a random id, usually a phantom
      break;
  }
  slot.insert(slot.begin() + rng.next_below(as_int(slot.size()) + 1), bad);
  return slot;
}

POPS_TEST(MatchesReferenceModelOnRandomOperations) {
  int operations = 0;
  for (const auto& [d, g] :
       {std::pair{1, 5}, {2, 2}, {3, 4}, {4, 3}, {5, 1}}) {
    const Topology topo(d, g);
    const int n = topo.processor_count();
    Rng rng(static_cast<std::uint64_t>(97 * d + g));
    Network net(topo);
    ReferenceNetwork model(topo);
    std::string difference;
    for (int op = 0; op < 4600 && difference.empty(); ++op) {
      const int kind = rng.next_below(20);
      int held = 0;
      for (int p = 0; p < n; ++p) held += as_int(model.held(p).size());
      if (kind == 0 || held > 6 * n) {
        net.reset();
        model.reset();
      } else if (kind < 3) {
        const Permutation pi = Permutation::random(n, rng);
        net.load_permutation_traffic(pi);
        model.load_permutation_traffic(pi);
      } else if (kind < 7) {
        const Packet packet{random_id(rng, n), rng.next_below(n),
                            rng.next_below(n + 1) - 1, 1 + rng.next_below(3),
                            rng.next_below(3)};
        net.load_packet(packet);
        model.load_packet(packet);
      } else {
        // One slot, or a two-slot FlatSchedule built on the state the
        // first slot leaves.
        const int slot_count = kind < 16 ? 1 : 2;
        ReferenceNetwork after = model;
        std::vector<std::vector<Transmission>> slots;
        bool skip = false;
        for (int s = 0; s < slot_count && !skip; ++s) {
          slots.push_back(random_slot(after, topo, rng));
          skip = ambiguous(after, n, slots.back());
          after.execute_slot(slots.back());
        }
        if (skip) continue;
        bool executed = true;
        if (slot_count == 1) {
          executed = net.execute_slot(Span<const Transmission>(slots[0]));
        } else {
          FlatSchedule schedule;
          for (const std::vector<Transmission>& slot : slots) {
            schedule.begin_slot();
            for (const Transmission& t : slot) schedule.push(t);
          }
          executed = net.execute(schedule);
        }
        bool expected = true;
        for (const std::vector<Transmission>& slot : slots) {
          expected = expected && model.execute_slot(slot);
        }
        if (executed != expected) difference = "execute() result";
      }
      ++operations;
      if (difference.empty()) difference = first_difference(net, model);
      if (!difference.empty()) {
        difference = str_cat(topo.to_string(), " operation ", op, ": ",
                             difference);
      }
    }
    EXPECT_EQ(difference, std::string());
  }
  EXPECT_TRUE(operations >= 20000);
}

POPS_TEST(ScratchFollowsPacketCountNotLargestId) {
  // Ids spread up to INT_MAX - 1 must not size anything by id.
  const Topology topo(2, 2);
  Network net(topo);
  const int count = 64;
  const int step = (std::numeric_limits<int>::max() - 1) / (count - 1);
  for (int k = 0; k < count; ++k) {
    net.load_packet(Packet{k * step, k % 4, (k + 1) % 4, 1, 0});
  }
  EXPECT_EQ(net.packet_count(), count);
  EXPECT_EQ(net.buffer(1)[0].id % step, 0);
  EXPECT_TRUE(net.scratch_capacity() <= 8 * as_size(count));

  // The ids INT_MIN + k * 2^25 end in 25 zero bits, so they all share
  // one bucket. The 64 even ones are loaded: each must still be found
  // at its own holder, and an odd one at none.
  Network shared(topo);
  const auto id = [](long long k) {
    return static_cast<int>(std::numeric_limits<int>::min() + (k << 25));
  };
  for (int k = 0; k < count; ++k) {
    shared.load_packet(Packet{id(2 * k), k % 4, (k + 1) % 4, 1, 0});
  }
  EXPECT_EQ(shared.packet_count(), count);
  EXPECT_TRUE(shared.scratch_capacity() <= 8 * as_size(count));
  SlotPlan send;
  send.transmissions.push_back(Transmission{1, 2, id(2 * 61)});
  EXPECT_TRUE(shared.execute_slot(send));
  EXPECT_EQ(shared.buffer(2).size(), std::size_t{17});
  SlotPlan phantom;
  phantom.transmissions.push_back(Transmission{0, 1, id(2 * 61 + 1)});
  EXPECT_FALSE(shared.execute_slot(phantom));
  EXPECT_TRUE(shared.failure().find(
                  str_cat("does not hold packet ", id(2 * 61 + 1))) !=
              std::string::npos);
}

}  // namespace
}  // namespace pops
