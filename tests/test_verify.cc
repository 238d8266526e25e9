// Negative-path coverage for verify_schedule. A schedule that
// oversubscribes a coupler and one that misdelivers a packet must both
// fail verification with a useful failure string.
#include "perm/families.h"
#include "routing/router.h"
#include "routing/verify.h"
#include "support/prng.h"
#include "tests/testing.h"

namespace pops {
namespace {

POPS_TEST(AcceptsACorrectSchedule) {
  const Topology topo(2, 2);
  const Permutation pi = vector_reversal(4);
  const RouteResult result = route(topo, pi, {RouteStrategy::kTheorem2});
  const VerificationResult vr = verify_schedule(topo, pi, result.schedule);
  EXPECT_TRUE(vr.ok);
  EXPECT_EQ(vr.failure, "");
}

POPS_TEST(RejectsCouplerOversubscription) {
  // POPS(2, 2), reversal: packets 0 (0 -> 3) and 1 (1 -> 2) both cross
  // from group 0 to group 1, so sending them in the same slot drives
  // coupler c(1, 0) twice.
  const Topology topo(2, 2);
  const Permutation pi = vector_reversal(4);
  FlatSchedule schedule;
  schedule.begin_slot();
  schedule.push(Transmission{0, 3, 0});
  schedule.push(Transmission{1, 2, 1});
  const VerificationResult vr = verify_schedule(topo, pi, schedule);
  EXPECT_FALSE(vr.ok);
  EXPECT_TRUE(vr.failure.find("coupler") != std::string::npos);
  EXPECT_TRUE(vr.failure.find("oversubscribed") != std::string::npos);
}

POPS_TEST(RejectsMisdelivery) {
  // A schedule whose every slot obeys the optical model but which
  // parks packets 1 and 2 at the wrong processors.
  const Topology topo(2, 2);
  const Permutation pi = vector_reversal(4);  // 0->3 1->2 2->1 3->0
  FlatSchedule schedule;
  schedule.begin_slot();  // valid slot, wrong drops:
  schedule.push(Transmission{2, 0, 2});  // 2 wants 1
  schedule.push(Transmission{1, 3, 1});  // 1 wants 2
  schedule.begin_slot();  // deliver packets 0 and 3 correctly
  schedule.push(Transmission{0, 3, 0});
  schedule.push(Transmission{3, 0, 3});
  const VerificationResult vr = verify_schedule(topo, pi, schedule);
  EXPECT_FALSE(vr.ok);
  EXPECT_TRUE(vr.failure.find("packet") != std::string::npos);
  EXPECT_TRUE(vr.failure.find("stranded") != std::string::npos);
}

POPS_TEST(RejectsUndeliveredPackets) {
  // An empty schedule delivers nothing (except fixed points).
  const Topology topo(2, 2);
  const Permutation pi = vector_reversal(4);
  const VerificationResult vr = verify_schedule(topo, pi, FlatSchedule{});
  EXPECT_FALSE(vr.ok);
  EXPECT_TRUE(vr.failure.find("stranded") != std::string::npos);
}

POPS_TEST(RejectsPhantomSend) {
  const Topology topo(2, 2);
  const Permutation pi = Permutation::identity(4);
  FlatSchedule schedule;
  schedule.begin_slot();
  schedule.push(Transmission{0, 1, 3});  // 0 holds 0, not 3
  const VerificationResult vr = verify_schedule(topo, pi, schedule);
  EXPECT_FALSE(vr.ok);
  EXPECT_TRUE(vr.failure.find("does not hold packet") !=
              std::string::npos);
}

POPS_TEST(RejectsScheduleForTheWrongPermutation) {
  // Route pi2 but verify against pi: delivery completes somewhere else.
  Rng rng(31);
  const Topology topo(4, 4);
  const Permutation pi = Permutation::random_derangement(16, rng);
  const Permutation pi2 = Permutation::random_derangement(16, rng);
  EXPECT_FALSE(pi.images() == pi2.images());
  const RouteResult result = route(topo, pi2, {RouteStrategy::kTheorem2});
  EXPECT_TRUE(verify_schedule(topo, pi2, result.schedule).ok);
  const VerificationResult vr = verify_schedule(topo, pi, result.schedule);
  EXPECT_FALSE(vr.ok);
  EXPECT_FALSE(vr.failure.empty());
}

POPS_TEST(RejectsSizeMismatch) {
  const VerificationResult vr = verify_schedule(
      Topology(2, 2), Permutation::identity(3), FlatSchedule{});
  EXPECT_FALSE(vr.ok);
  EXPECT_TRUE(vr.failure.find("does not fit") != std::string::npos);
}

}  // namespace
}  // namespace pops
