#include <limits>

#include "perm/families.h"
#include "pops/network.h"
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
  // Withdrawal is a swap-and-pop: sending the front packet moves the
  // row's last packet into its slot. Delivery resolves packets by id,
  // so the permuted buffer order must never be observable.
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
  // — together with the lookup-by-id path this makes the swap-and-pop
  // reordering fully unobservable.
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
    // succeeds on the survivor regardless of where the swap left it.
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

POPS_TEST(SlabGrowthPreservesQueuedPackets) {
  // Overflowing one processor's fixed-stride slab region re-strides the
  // whole slab; every other processor's row must move intact.
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

}  // namespace
}  // namespace pops
