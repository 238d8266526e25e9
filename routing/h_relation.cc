#include "routing/h_relation.h"

#include <algorithm>

#include "graph/bipartite_multigraph.h"
#include "graph/edge_coloring.h"
#include "routing/engine.h"

namespace pops {

int HRelationPlan::total_slots() const {
  int total = 0;
  for (const HRelationPhase& phase : phases) {
    total += as_int(phase.slots.size());
  }
  return total;
}

std::vector<SlotPlan> HRelationPlan::all_slots() const {
  std::vector<SlotPlan> slots;
  for (const HRelationPhase& phase : phases) {
    slots.insert(slots.end(), phase.slots.begin(), phase.slots.end());
  }
  return slots;
}

HRelationPlan route_h_relation(const Topology& topo,
                               const std::vector<Request>& requests,
                               const RouterOptions& options) {
  const int n = topo.processor_count();

  // The traffic multigraph: one edge per request, processor to
  // processor, so the edge id is the request id.
  BipartiteMultigraph traffic(n, n);
  for (const Request& request : requests) {
    POPS_CHECK(request.source >= 0 && request.source < n,
               "route_h_relation: request source out of range");
    POPS_CHECK(request.destination >= 0 && request.destination < n,
               "route_h_relation: request destination out of range");
    traffic.add_edge(request.source, request.destination);
  }

  HRelationPlan plan;
  plan.h = traffic.max_degree();
  if (plan.h == 0) return plan;

  // Irregular traffic stays on alternating path: padding it to
  // h-regular for a divide-and-conquer backend costs more than the
  // coloring saves. options.coloring only picks how the engine colors
  // each phase's H.
  const EdgeColoring coloring =
      color_edges(traffic, ColoringAlgorithm::kAlternatingPath);
  POPS_CHECK(coloring.num_colors == plan.h,
             "König: an h-relation must be h-edge-colorable");
  std::vector<std::vector<int>> requests_of_color(as_size(plan.h));
  for (int e = 0; e < traffic.edge_count(); ++e) {
    requests_of_color[as_size(coloring.color[as_size(e)])].push_back(e);
  }

  // One engine for all h phases: the Theorem 2 scratch (multigraphs,
  // colorings, flat schedule) warms up on the first phase and is
  // reused by the remaining h - 1, which is where bulk h-relations
  // spend their time.
  RoutingEngine engine(topo, options);
  std::vector<int> image(as_size(n));
  std::vector<int> request_of_source(as_size(n));
  std::vector<bool> destination_used(as_size(n));

  for (int c = 0; c < plan.h; ++c) {
    // By properness, the class is a partial permutation: each
    // processor sends at most one of its packets and receives at most
    // one.
    HRelationPhase phase;
    phase.requests = std::move(requests_of_color[as_size(c)]);
    std::fill(image.begin(), image.end(), -1);
    std::fill(request_of_source.begin(), request_of_source.end(), -1);
    std::fill(destination_used.begin(), destination_used.end(), false);
    for (const int e : phase.requests) {
      const Request& request = requests[as_size(e)];
      image[as_size(request.source)] = request.destination;
      request_of_source[as_size(request.source)] = e;
      destination_used[as_size(request.destination)] = true;
    }

    // Pad to a full permutation (idle sources -> unused destinations,
    // in order) so the Theorem 2 router applies as-is.
    int next_free = 0;
    for (int p = 0; p < n; ++p) {
      if (image[as_size(p)] != -1) continue;
      while (destination_used[as_size(next_free)]) ++next_free;
      image[as_size(p)] = next_free;
      destination_used[as_size(next_free)] = true;
    }

    const FlatSchedule& padded =
        engine.route_permutation(Permutation(image));

    // Dropping the padding transmissions only relaxes the optical
    // constraints, so the filtered schedule stays valid. Each kept
    // transmission is renamed from the engine's packet id (the phase
    // source) to the request id the simulator tracks.
    for (int s = 0; s < padded.slot_count(); ++s) {
      SlotPlan filtered;
      for (const Transmission& t : padded.slot(s)) {
        const int request = request_of_source[as_size(t.packet)];
        if (request == -1) continue;
        filtered.transmissions.push_back(
            Transmission{t.source, t.destination, request});
      }
      phase.slots.push_back(std::move(filtered));
    }
    plan.phases.push_back(std::move(phase));
  }
  return plan;
}

}  // namespace pops
