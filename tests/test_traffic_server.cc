// Tests for serve/: window-close edge cases, verification of the
// server's routed windows through the independent verify_h_relation
// checker (including a corrupted-window negative path), a pinned digest
// of served windows, and the zero-steady-state-allocation soak
// contract.
#include "serve/traffic_server.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "pops/patterns.h"
#include "routing/bounds.h"
#include "routing/h_relation.h"
#include "routing/verify.h"
#include "support/alloc_guard.h"
#include "tests/digest.h"
#include "tests/h_relation_util.h"
#include "tests/testing.h"

namespace pops {
namespace {

Demand make_demand(int source, int destination,
                   std::uint64_t arrival_tick = 0, int payload = 1) {
  Demand demand;
  demand.source = source;
  demand.destination = destination;
  demand.payload = payload;
  demand.arrival_tick = arrival_tick;
  return demand;
}

POPS_TEST(EmptyFlushIsNoOp) {
  TrafficServer server(Topology(4, 4));
  server.flush();
  server.flush();
  EXPECT_EQ(server.stats().windows_routed, 0);
  EXPECT_EQ(server.pending_demands(), 0);
  EXPECT_EQ(server.now(), std::uint64_t{0});
  // The constructor reserves and routes nothing: no window yet.
  EXPECT_EQ(server.last_window_degree(), 0);
  EXPECT_EQ(server.last_window_slots(), 0);
  EXPECT_TRUE(server.last_window_requests().empty());
  const HRelationPlan plan = server.last_window_plan();
  EXPECT_EQ(plan.h, 0);
  EXPECT_TRUE(plan.phases.empty());
}

POPS_TEST(SingleDemandWindow) {
  const Topology topo(4, 4);
  TrafficServer server(topo);
  server.submit(make_demand(0, 5, 3));
  EXPECT_EQ(server.pending_demands(), 1);
  EXPECT_EQ(server.pending_degree(), 1);
  server.flush();
  const ServerStats& stats = server.stats();
  EXPECT_EQ(stats.windows_routed, 1);
  EXPECT_EQ(stats.demands_routed, 1);
  EXPECT_EQ(server.last_window_degree(), 1);
  // One phase of one packet: a single direct slot, against a budget
  // of one Theorem 2 phase.
  EXPECT_EQ(server.last_window_slots(), 1);
  EXPECT_EQ(server.last_window_slots(),
            testing::expected_plan_slots(topo, server.last_window_requests(),
                                         server.last_window_plan()));
  EXPECT_EQ(stats.slots_executed, 1);
  EXPECT_EQ(stats.budget_slots, h_relation_budget(topo, 1));
  // Window executes at max(clock=0, arrival=3) and takes its slots.
  EXPECT_EQ(server.now(), std::uint64_t{3} + 1);
  EXPECT_EQ(stats.queueing_delay.count, 1);
}

POPS_TEST(ExactlyHDegreeClosesOnBreach) {
  // Degree cap 2: two demands from the same source fill the window;
  // the third from that source must close it first.
  ServerConfig config;
  config.max_window_degree = 2;
  TrafficServer server(Topology(4, 4), config);
  server.submit(make_demand(0, 5));
  server.submit(make_demand(0, 6));
  EXPECT_EQ(server.pending_demands(), 2);
  EXPECT_EQ(server.pending_degree(), 2);
  EXPECT_EQ(server.stats().windows_routed, 0);
  server.submit(make_demand(0, 7));
  EXPECT_EQ(server.stats().windows_routed, 1);
  EXPECT_EQ(server.last_window_degree(), 2);
  EXPECT_EQ(server.pending_demands(), 1);
  server.flush();
  EXPECT_EQ(server.stats().windows_routed, 2);
  EXPECT_EQ(server.last_window_degree(), 1);
}

POPS_TEST(ReceiveDegreeAlsoCloses) {
  ServerConfig config;
  config.max_window_degree = 2;
  TrafficServer server(Topology(4, 4), config);
  server.submit(make_demand(1, 9));
  server.submit(make_demand(2, 9));
  server.submit(make_demand(3, 9));  // third receiver hit on 9
  EXPECT_EQ(server.stats().windows_routed, 1);
  EXPECT_EQ(server.pending_demands(), 1);
}

POPS_TEST(CountCapClosesWindow) {
  ServerConfig config;
  config.max_window_demands = 3;
  TrafficServer server(Topology(2, 4), config);
  server.submit(make_demand(0, 4));
  server.submit(make_demand(1, 5));
  EXPECT_EQ(server.stats().windows_routed, 0);
  server.submit(make_demand(2, 6));
  EXPECT_EQ(server.stats().windows_routed, 1);
  EXPECT_EQ(server.pending_demands(), 0);
}

POPS_TEST(LastWindowPassesVerifyHRelation) {
  // The server's last-window debug accessors reconstruct the
  // routing/h_relation types; the independent checker must accept the
  // plan for every arrival process and a couple of topologies.
  for (const auto& [d, g] : {std::pair{4, 4}, {8, 4}, {1, 8}}) {
    const Topology topo(d, g);
    for (const ArrivalProcess process : kAllArrivalProcesses) {
      ServerConfig config;
      config.max_window_degree = 3;
      config.max_window_demands = 64;
      TrafficServer server(topo, config);
      ArrivalConfig arrivals;
      arrivals.process = process;
      arrivals.seed = 21;
      ArrivalGenerator generator(topo, arrivals);
      while (server.stats().windows_routed < 3) {
        server.submit(generator.next());
      }
      const std::vector<Request> requests = server.last_window_requests();
      const HRelationPlan plan = server.last_window_plan();
      EXPECT_EQ(plan.h, server.last_window_degree());
      EXPECT_EQ(plan.total_slots(), server.last_window_slots());
      EXPECT_EQ(verify_h_relation(topo, requests, plan), std::string());
    }
  }
}

// The server and the one-shot route_h_relation share one
// decomposition: the server's last window must be exactly what
// route_h_relation makes of the same requests with the same options.
POPS_TEST(LastWindowPlanMatchesRouteHRelation) {
  for (const ColoringAlgorithm algorithm : kAllColoringAlgorithms) {
    for (const auto& [d, g] : {std::pair{4, 4}, {8, 2}, {1, 8}}) {
      const Topology topo(d, g);
      ServerConfig config;
      config.max_window_degree = 4;
      config.max_window_demands = 48;
      config.router.coloring = algorithm;
      TrafficServer server(topo, config);
      ArrivalConfig arrivals;
      arrivals.process = ArrivalProcess::kZipfHotGroup;
      arrivals.seed = 41;
      ArrivalGenerator generator(topo, arrivals);
      while (server.stats().windows_routed < 4) {
        server.submit(generator.next());
      }
      const std::vector<Request> requests = server.last_window_requests();
      const HRelationPlan served = server.last_window_plan();
      const HRelationPlan reference =
          route_h_relation(topo, requests, config.router);
      EXPECT_EQ(served.h, reference.h);
      EXPECT_EQ(served.phases.size(), reference.phases.size());
      if (served.phases.size() != reference.phases.size()) continue;
      for (std::size_t c = 0; c < served.phases.size(); ++c) {
        const HRelationPhase& a = served.phases[c];
        const HRelationPhase& b = reference.phases[c];
        EXPECT_TRUE(a.requests == b.requests);
        EXPECT_EQ(a.slots.size(), b.slots.size());
        if (a.slots.size() != b.slots.size()) continue;
        for (std::size_t s = 0; s < a.slots.size(); ++s) {
          const std::vector<Transmission>& x = a.slots[s].transmissions;
          const std::vector<Transmission>& y = b.slots[s].transmissions;
          EXPECT_EQ(x.size(), y.size());
          for (std::size_t i = 0; i < x.size() && i < y.size(); ++i) {
            EXPECT_EQ(x[i].source, y[i].source);
            EXPECT_EQ(x[i].destination, y[i].destination);
            EXPECT_EQ(x[i].packet, y[i].packet);
          }
        }
      }
    }
  }
}

POPS_TEST(CorruptedWindowFailsVerification) {
  const Topology topo(4, 4);
  ServerConfig config;
  config.max_window_degree = 3;
  TrafficServer server(topo, config);
  ArrivalConfig arrivals;
  arrivals.seed = 5;
  ArrivalGenerator generator(topo, arrivals);
  while (server.stats().windows_routed < 1) {
    server.submit(generator.next());
  }
  const std::vector<Request> requests = server.last_window_requests();
  HRelationPlan plan = server.last_window_plan();
  EXPECT_EQ(verify_h_relation(topo, requests, plan), std::string());

  // Redirect the first routed transmission to a wrong receiver: the
  // strict checker must reject the doctored plan (the packet is either
  // misdelivered or the slot now violates the receiver rules).
  bool corrupted = false;
  for (auto& phase : plan.phases) {
    for (auto& slot : phase.slots) {
      if (!slot.transmissions.empty()) {
        Transmission& tx = slot.transmissions.front();
        tx.destination =
            (tx.destination + 1) % topo.processor_count();
        corrupted = true;
        break;
      }
    }
    if (corrupted) break;
  }
  EXPECT_TRUE(corrupted);
  EXPECT_NE(verify_h_relation(topo, requests, plan), std::string());

  // Dropping a request's packet entirely must also fail.
  HRelationPlan truncated = server.last_window_plan();
  if (!truncated.phases.empty()) {
    truncated.phases.back().requests.clear();
    truncated.phases.back().slots.clear();
    EXPECT_NE(verify_h_relation(topo, requests, truncated),
              std::string());
  }
}

POPS_TEST(SubmitRejectsBadDemands) {
  // Bad client input is refused and counted, never a process abort,
  // and it leaves the open window untouched.
  TrafficServer server(Topology(2, 2));
  EXPECT_FALSE(server.submit(make_demand(-1, 0)));
  EXPECT_FALSE(server.submit(make_demand(0, 4)));
  EXPECT_FALSE(server.submit(make_demand(0, 1, 0, -1)));
  EXPECT_EQ(server.stats().demands_rejected, 3);
  EXPECT_EQ(server.pending_demands(), 0);
  // The server keeps serving valid demands afterwards.
  EXPECT_TRUE(server.submit(make_demand(0, 3)));
  server.flush();
  EXPECT_EQ(server.stats().demands_routed, 1);
  EXPECT_EQ(server.stats().demands_rejected, 3);
}

POPS_TEST(ServerRejectsBadConfig) {
  ServerConfig degree;
  degree.max_window_degree = 0;
  EXPECT_ABORTS(TrafficServer(Topology(2, 2), degree));
  ServerConfig count;
  count.max_window_demands = 0;
  EXPECT_ABORTS(TrafficServer(Topology(2, 2), count));
}

POPS_TEST(ClockAdvancesMonotonically) {
  const Topology topo(4, 4);
  TrafficServer server(topo);
  std::uint64_t previous = server.now();
  ArrivalConfig arrivals;
  arrivals.process = ArrivalProcess::kBurstyOnOff;
  arrivals.seed = 33;
  ArrivalGenerator generator(topo, arrivals);
  for (int window = 0; window < 20; ++window) {
    while (server.stats().windows_routed < window + 1) {
      server.submit(generator.next());
    }
    EXPECT_TRUE(server.now() > previous);
    previous = server.now();
  }
}

POPS_TEST(SoakKeepsScratchFootprintFlat) {
  // The zero-allocation contract at system scale: after a warm-up,
  // 1000+ further windows must not grow a single server-owned arena.
  const Topology topo(4, 4);
  ServerConfig config;
  config.max_window_degree = 4;
  config.max_window_demands = 128;
  TrafficServer server(topo, config);
  // The constructor reserves every arena for the widest window, so the
  // footprint is flat from birth — not merely after a lucky warm-up.
  const ScratchFootprint birth = server.scratch_footprint();
  ArrivalConfig arrivals;
  arrivals.seed = 77;
  ArrivalGenerator generator(topo, arrivals);
  while (server.stats().windows_routed < 50) {
    server.submit(generator.next());
  }
  const ScratchFootprint warm = server.scratch_footprint();
  EXPECT_TRUE(warm.units > 0);
  EXPECT_EQ(warm.units, birth.units);
  {
    // The 1000+-window steady stretch also runs inside an explicit
    // allocation ban: in POPS_ALLOC_GUARD builds any heap activity in
    // the generator, admission control, routing, or simulation aborts
    // outright — transient allocations included, which the capacity
    // comparison below cannot see.
    ScopedAllocationBan ban("test: traffic soak steady state");
    while (server.stats().windows_routed < 1100) {
      server.submit(generator.next());
    }
    server.flush();
  }
  EXPECT_EQ(server.scratch_footprint().units, warm.units);
  EXPECT_TRUE(server.stats().windows_routed >= 1100);
  EXPECT_TRUE(server.stats().slots_executed <= server.stats().budget_slots);
}

POPS_TEST(ServersWithMoreGroupsThanGroupSizeSoakUnderTheBan) {
  // With g > d, Theorem 2 spreads each phase's H onto g classes; at 3/8,
  // where d does not divide g, the spread's swaps run too. Every
  // arrival process, 400 windows inside an external ban, and the
  // footprint stays at its size at construction.
  for (const auto& [d, g] : {std::pair{3, 8}, {2, 8}, {4, 16}}) {
    const Topology topo(d, g);
    for (const ArrivalProcess process : kAllArrivalProcesses) {
      ServerConfig config;
      config.max_window_degree = 4;
      config.max_window_demands = 64;
      TrafficServer server(topo, config);
      const ScratchFootprint birth = server.scratch_footprint();
      ArrivalConfig arrivals;
      arrivals.process = process;
      arrivals.seed = 91;
      ArrivalGenerator generator(topo, arrivals);
      {
        ScopedAllocationBan ban("test: g > d soak");
        while (server.stats().windows_routed < 400) {
          server.submit(generator.next());
        }
      }
      EXPECT_EQ(server.scratch_footprint(), birth);
      EXPECT_TRUE(server.stats().slots_executed <=
                  server.stats().budget_slots);
    }
  }
}

POPS_TEST(ReservationStopsAtTheWidestWindow) {
  // A window holds at most n * h demands, and its degree is at most its
  // demand count, so a demand cap or a degree cap past what a window
  // can reach reserves nothing more.
  const Topology topo(4, 4);
  ServerConfig fits;
  fits.max_window_degree = 2;
  fits.max_window_demands = 32;  // n * h
  ServerConfig unreachable = fits;
  unreachable.max_window_demands = 1024;
  EXPECT_EQ(TrafficServer(topo, unreachable).scratch_footprint(),
            TrafficServer(topo, fits).scratch_footprint());

  ServerConfig shallow;
  shallow.max_window_degree = 3;
  shallow.max_window_demands = 3;
  ServerConfig deep = shallow;
  deep.max_window_degree = 8;
  EXPECT_EQ(TrafficServer(topo, deep).scratch_footprint(),
            TrafficServer(topo, shallow).scratch_footprint());
  // The deep server's reservation still holds every window it closes.
  TrafficServer server(topo, deep);
  const ScratchFootprint birth = server.scratch_footprint();
  ArrivalConfig arrivals;
  arrivals.seed = 93;
  ArrivalGenerator generator(topo, arrivals);
  {
    ScopedAllocationBan ban("test: cap-3 soak");
    while (server.stats().windows_routed < 400) {
      server.submit(generator.next());
    }
  }
  EXPECT_EQ(server.scratch_footprint(), birth);
  EXPECT_TRUE(server.stats().slots_executed <= server.stats().budget_slots);
}

// True when some packet of `phase` makes two hops: the phase took
// Theorem 2, whose relays a direct schedule never uses.
bool relays(const std::vector<Request>& requests,
            const HRelationPhase& phase) {
  for (const SlotPlan& slot : phase.slots) {
    for (const Transmission& t : slot.transmissions) {
      const Request& request = requests[as_size(t.packet)];
      if (t.source != request.source || t.destination != request.destination) {
        return true;
      }
    }
  }
  return false;
}

POPS_TEST(ZipfWindowsTakeExactlyTheirPhaseLengths) {
  // Every window's slot count is the sum of its phases' exact lengths,
  // min(M, 2 * ceil(Delta / g)) each, recomputed from the requests,
  // and the window still verifies. Zipf traffic concentrates on a hot
  // group, so both schedules win phases; on 3/8 and 4/16 (g > d) a
  // relayed phase spreads its H onto g classes.
  for (const auto& [d, g] :
       {std::pair{16, 8}, {4, 4}, {3, 8}, {4, 16}}) {
    const Topology topo(d, g);
    ServerConfig config;
    config.max_window_degree = 8;
    config.max_window_demands = 256;
    TrafficServer server(topo, config);
    ArrivalConfig arrivals;
    arrivals.process = ArrivalProcess::kZipfHotGroup;
    arrivals.seed = 61;
    ArrivalGenerator generator(topo, arrivals);
    long long checked = 0;
    int relayed = 0;
    while (checked < 200) {
      const long long windows = server.stats().windows_routed;
      server.submit(generator.next());
      if (server.stats().windows_routed == windows) continue;
      const std::vector<Request> requests = server.last_window_requests();
      const HRelationPlan plan = server.last_window_plan();
      EXPECT_EQ(server.last_window_slots(), plan.total_slots());
      EXPECT_EQ(server.last_window_slots(),
                testing::expected_plan_slots(topo, requests, plan));
      EXPECT_TRUE(server.last_window_slots() <=
                  h_relation_budget(topo, plan.h));
      EXPECT_EQ(verify_h_relation(topo, requests, plan), std::string());
      for (const HRelationPhase& phase : plan.phases) {
        if (relays(requests, phase)) ++relayed;
      }
      ++checked;
    }
    EXPECT_TRUE(relayed > 0);
    EXPECT_TRUE(server.stats().slots_executed <
                server.stats().budget_slots);
  }
}

// Hashes the last window of `server`: its degree, then each phase's
// requests and slots.
void add_last_window(testing::Digest& digest, const TrafficServer& server) {
  const HRelationPlan plan = server.last_window_plan();
  digest.add(plan.h);
  for (const HRelationPhase& phase : plan.phases) {
    digest.add(phase.requests);
    digest.add(as_int(phase.slots.size()));
    for (const SlotPlan& slot : phase.slots) {
      digest.add(as_int(slot.transmissions.size()));
      for (const Transmission& t : slot.transmissions) {
        digest.add(t.source);
        digest.add(t.destination);
        digest.add(t.packet);
      }
    }
  }
}

POPS_TEST(ServedWindowsMatchTheirPinnedDigest) {
  // Every window served, then the final counters, both delay
  // percentiles and the clock, over four shapes (3/8 spreads each
  // Theorem 2 phase onto g classes), every arrival process and three
  // degree caps. A change that moves one window, one counter or one
  // tick changes the digest.
  constexpr std::uint64_t kPinnedDigest = 0xdffb22472ff048deull;
  constexpr int kDemands = 1000;
  testing::Digest digest;
  for (const auto& [d, g] : {std::pair{16, 8}, {3, 8}, {4, 4}, {8, 3}}) {
    const Topology topo(d, g);
    for (const ArrivalProcess process : kAllArrivalProcesses) {
      for (const int degree : {1, 3, 8}) {
        ServerConfig config;
        config.max_window_degree = degree;
        config.max_window_demands = 256;
        TrafficServer server(topo, config);
        ArrivalConfig arrivals;
        arrivals.process = process;
        arrivals.seed = 67;
        ArrivalGenerator generator(topo, arrivals);
        for (int i = 0; i <= kDemands; ++i) {
          const long long windows = server.stats().windows_routed;
          if (i < kDemands) {
            server.submit(generator.next());
          } else {
            server.flush();
          }
          if (server.stats().windows_routed != windows) {
            add_last_window(digest, server);
          }
        }
        const ServerStats stats = server.stats();
        digest.add(stats.windows_routed);
        digest.add(stats.demands_routed);
        digest.add(stats.demands_rejected);
        digest.add(stats.payload_flits_delivered);
        digest.add(stats.slots_executed);
        digest.add(stats.budget_slots);
        digest.add(stats.max_window_degree);
        digest.add(stats.queueing_delay.count);
        digest.add(stats.queueing_delay.sum_low);
        digest.add(stats.queueing_delay.sum_high);
        digest.add(stats.queueing_delay.max);
        digest.add(stats.queueing_delay.percentile(0.50));
        digest.add(stats.queueing_delay.percentile(0.99));
        digest.add(server.now());
      }
    }
  }
  EXPECT_EQ(digest.value(), kPinnedDigest);
}

POPS_TEST(HugeQueueingDelayGetsAValidBucket) {
  // One window with arrival ticks 0 and 2^63 + 5: it executes at the
  // later tick, so the first demand waits more than 2^63 ticks, which
  // lands in the histogram's top bucket.
  const Topology topo(4, 4);
  TrafficServer server(topo);
  const std::uint64_t late = (std::uint64_t{1} << 63) + 5;
  EXPECT_TRUE(server.submit(make_demand(0, 5, 0)));
  EXPECT_TRUE(server.submit(make_demand(1, 6, late)));
  server.flush();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.windows_routed, 1);
  EXPECT_EQ(stats.queueing_delay.count, 2);
  EXPECT_EQ(stats.queueing_delay.max, late);
  EXPECT_EQ(stats.queueing_delay.percentile(0.5), std::uint64_t{0});
  EXPECT_EQ(stats.queueing_delay.percentile(1.0),
            std::numeric_limits<std::uint64_t>::max());
  // Both packets cross from group 0 to group 1 on one coupler, which
  // the direct schedule drains in two slots.
  EXPECT_EQ(server.last_window_slots(), 2);
  EXPECT_EQ(server.last_window_slots(),
            testing::expected_plan_slots(topo, server.last_window_requests(),
                                         server.last_window_plan()));
  EXPECT_EQ(server.now(),
            late + static_cast<std::uint64_t>(server.last_window_slots()));
}

POPS_TEST(WindowWaitsForItsLatestArrivalInAnyOrder) {
  // Concurrent submitters can interleave arrival ticks. A window
  // executes at its latest arrival, not at its last demand's.
  const Topology topo(4, 4);
  TrafficServer server(topo);
  EXPECT_TRUE(server.submit(make_demand(0, 5, 10)));
  EXPECT_TRUE(server.submit(make_demand(1, 6, 3)));
  server.flush();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.windows_routed, 1);
  // Both packets share coupler c(1, 0): two direct slots after tick 10.
  EXPECT_EQ(server.last_window_slots(), 2);
  EXPECT_EQ(server.now(), std::uint64_t{12});
  EXPECT_EQ(stats.queueing_delay.max, std::uint64_t{7});
  EXPECT_EQ(stats.queueing_delay.mean(), 3.5);
}

POPS_TEST(DelayHistogramPercentiles) {
  DelayHistogram histogram;
  EXPECT_EQ(histogram.percentile(0.5), std::uint64_t{0});
  for (int i = 0; i < 90; ++i) histogram.record(0);
  for (int i = 0; i < 9; ++i) histogram.record(5);   // bucket [4, 8)
  histogram.record(100);                             // bucket [64, 128)
  EXPECT_EQ(histogram.count, 100);
  EXPECT_EQ(histogram.max, std::uint64_t{100});
  EXPECT_EQ(histogram.percentile(0.50), std::uint64_t{0});
  EXPECT_EQ(histogram.percentile(0.95), std::uint64_t{7});
  EXPECT_EQ(histogram.percentile(1.0), std::uint64_t{127});
  // The largest delay has a bucket too, [2^63, 2^64), whose upper
  // bound is UINT64_MAX.
  const std::uint64_t largest = std::numeric_limits<std::uint64_t>::max();
  histogram.record(largest);
  EXPECT_EQ(histogram.count, 101);
  EXPECT_EQ(histogram.max, largest);
  EXPECT_EQ(histogram.percentile(0.95), std::uint64_t{7});
  EXPECT_EQ(histogram.percentile(0.99), std::uint64_t{127});
  EXPECT_EQ(histogram.percentile(1.0), largest);
}

POPS_TEST(DelayHistogramMeanSurvivesASumPast2To64) {
  // Two delays of UINT64_MAX already sum past 2^64; the mean must
  // still be the true one, (2 * (2^64 - 1) + 3 * 2^63) / 5.
  DelayHistogram histogram;
  const std::uint64_t largest = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t half = std::uint64_t{1} << 63;
  histogram.record(largest);
  histogram.record(largest);
  for (int i = 0; i < 3; ++i) histogram.record(half);
  const double expected = (2.0 * 18446744073709551615.0 +
                           3.0 * 9223372036854775808.0) /
                          5.0;
  EXPECT_TRUE(std::fabs(histogram.mean() - expected) <= 1e-12 * expected);
  EXPECT_EQ(DelayHistogram{}.mean(), 0.0);
}

}  // namespace
}  // namespace pops
