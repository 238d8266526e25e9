// Bitwise schedule comparison for the tests that pin one route's
// schedule to another's, the relays a Theorem 2 schedule names, and a
// plain reference Theorem 2 builder that the engine's schedules are
// pinned to.
#pragma once

#include <vector>

#include "graph/bipartite_multigraph.h"
#include "graph/edge_coloring.h"
#include "pops/flat_plan.h"
#include "pops/network.h"

namespace pops::testing {

/// True iff `a` and `b` have the same slots, each holding the same
/// transmissions in the same order.
inline bool same_schedule(const FlatSchedule& a, const FlatSchedule& b) {
  if (a.slot_count() != b.slot_count()) return false;
  if (a.transmission_count() != b.transmission_count()) return false;
  for (int s = 0; s < a.slot_count(); ++s) {
    const Span<const Transmission> sa = a.slot(s);
    const Span<const Transmission> sb = b.slot(s);
    if (sa.size() != sb.size()) return false;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i].source != sb[i].source ||
          sa[i].destination != sb[i].destination ||
          sa[i].packet != sb[i].packet) {
        return false;
      }
    }
  }
  return true;
}

/// The relay of each packet of a Theorem 2 schedule, by packet id in
/// [0, count): the receiver of its transmission in a distribute slot
/// (slot 2q of batch q), or its source when the schedule is one slot
/// (d == 1) and every packet goes straight; -1 for a packet the
/// schedule never sends. For a permutation the packet id is the source.
inline std::vector<int> relays_by_packet(const FlatSchedule& schedule,
                                         int count) {
  std::vector<int> relay(as_size(count), -1);
  const bool straight = schedule.slot_count() == 1;
  for (int s = 0; s < schedule.slot_count(); s += 2) {
    for (const Transmission& t : schedule.slot(s)) {
      relay[as_size(t.packet)] = straight ? t.source : t.destination;
    }
  }
  return relay;
}

/// Mei & Rizzi's Theorem 2 on a packet list with pairwise distinct
/// sources and pairwise distinct destinations, written for clarity
/// rather than speed: H is a BipartiteMultigraph with one edge per
/// packet (source group to destination group), colored by
/// EdgeColorer::color with `algorithm` when the list holds all n
/// packets and with alternating path otherwise, and spread onto g
/// classes when g > d. Batch q takes the classes [q * g, q * g + g),
/// found by one scan of the list, and fills two slots through push():
/// each packet goes to the next free processor of intermediate group
/// c - q * g, then on to its destination. With d == 1 every packet goes
/// straight in one slot. intermediate[source] receives each packet's
/// intermediate processor (its source when it went straight).
inline FlatSchedule reference_theorem2(const Topology& topo,
                                       Span<const Transmission> packets,
                                       ColoringAlgorithm algorithm,
                                       std::vector<int>& intermediate) {
  const int d = topo.d();
  const int g = topo.g();
  const int count = packets.count();
  intermediate.assign(as_size(topo.processor_count()), -1);
  FlatSchedule out;
  if (d == 1) {
    out.begin_slot();
    for (const Transmission& p : packets) {
      out.push(p);
      intermediate[as_size(p.source)] = p.source;
    }
    return out;
  }
  BipartiteMultigraph h(g, g);
  for (const Transmission& p : packets) {
    h.add_edge(topo.group_of(p.source), topo.group_of(p.destination));
  }
  const bool full = count == topo.processor_count();
  const ColoringAlgorithm backend =
      full ? algorithm : ColoringAlgorithm::kAlternatingPath;
  EdgeColoring coloring = color_edges(h, backend);
  if (g > d) coloring = spread_colors(h, coloring, g);
  for (int lo = 0; lo < coloring.num_colors; lo += g) {
    std::vector<int> batch;
    for (int i = 0; i < count; ++i) {
      const int c = coloring.color[as_size(i)];
      if (c >= lo && c < lo + g) batch.push_back(i);
    }
    std::vector<int> used(as_size(g), 0);
    out.begin_slot();
    for (const int i : batch) {
      const Transmission& p = packets[as_size(i)];
      const int mid_group = coloring.color[as_size(i)] - lo;
      const int mid = topo.processor(mid_group, used[as_size(mid_group)]++);
      intermediate[as_size(p.source)] = mid;
      out.push(Transmission{p.source, mid, p.packet});
    }
    out.begin_slot();
    for (const int i : batch) {
      const Transmission& p = packets[as_size(i)];
      out.push(Transmission{intermediate[as_size(p.source)], p.destination,
                            p.packet});
    }
  }
  return out;
}

}  // namespace pops::testing
