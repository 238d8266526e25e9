#include "routing/router.h"

#include <limits>

#include "routing/engine.h"

namespace pops {

std::string to_string(RouteStrategy strategy) {
  switch (strategy) {
    case RouteStrategy::kDirect:
      return "direct";
    case RouteStrategy::kTheorem2:
      return "theorem2";
    case RouteStrategy::kBest:
      return "best";
  }
  POPS_CHECK(false, "to_string: unknown RouteStrategy");
  return "";
}

int theorem2_slots(const Topology& topo) {
  // 2 * ceil(d / g) <= 2 * n, which must fit an int.
  POPS_CHECK(topo.processor_count() <= std::numeric_limits<int>::max() / 2,
             "theorem2_slots: POPS(d, g) needs 2 * d * g to fit an int");
  if (topo.d() == 1) return 1;
  return 2 * ((topo.d() + topo.g() - 1) / topo.g());
}

RouteResult route(const Topology& topo, const Permutation& pi,
                  const RouteOptions& options) {
  RoutingEngine engine(topo);
  RouteResult result;
  result.schedule = engine.route(pi, options);  // copies the flat plan
  result.strategy = engine.last_strategy();
  result.slot_count = result.schedule.slot_count();
  return result;
}

}  // namespace pops
