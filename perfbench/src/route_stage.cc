#include "route_stage.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "perm/families.h"
#include "pops/patterns.h"
#include "routing/bounds.h"

namespace perfbench {

using pops::FlatSchedule;
using pops::Permutation;
using pops::Rng;
using pops::RouteStrategy;
using pops::Span;
using pops::Topology;

namespace {

// Pools are drawn until they hold `count` distinct permutations; the
// cap only guards against a family that cannot produce that many.
template <typename Draw>
std::vector<Permutation> distinct_pool(int count, Draw draw) {
  std::set<std::vector<int>> seen;
  std::vector<Permutation> pool;
  pool.reserve(static_cast<std::size_t>(count));
  for (int attempt = 0; static_cast<int>(pool.size()) < count; ++attempt) {
    if (attempt > 64 * count) {
      std::fprintf(stderr, "perfbench: cannot draw %d distinct inputs\n",
                   count);
      std::exit(2);
    }
    Permutation pi = draw(static_cast<int>(pool.size()));
    if (seen.insert(pi.images()).second) pool.push_back(std::move(pi));
  }
  return pool;
}

// Relabels the processors inside every destination group with seeded
// permutations of the d in-group indices: H (group to group) is kept.
Permutation relabel_within_groups(const Topology& topo,
                                  const Permutation& pi, Rng& rng) {
  std::vector<std::vector<int>> within(static_cast<std::size_t>(topo.g()));
  for (std::vector<int>& tau : within) {
    tau.resize(static_cast<std::size_t>(topo.d()));
    for (int i = 0; i < topo.d(); ++i) tau[static_cast<std::size_t>(i)] = i;
    rng.shuffle(tau);
  }
  std::vector<int> images(pi.images());
  for (int& image : images) {
    const int group = topo.group_of(image);
    image = topo.processor(
        group, within[static_cast<std::size_t>(group)]
                     [static_cast<std::size_t>(topo.index_in_group(image))]);
  }
  return Permutation(std::move(images));
}

Permutation structured(const Topology& topo, int family, Rng& rng) {
  const int d = topo.d();
  const int g = topo.g();
  switch (family) {
    case 0:
      return pops::group_rotation(d, g, 1 + rng.next_below(std::max(1, g - 1)));
    case 1:
      return pops::vector_reversal(topo.processor_count());
    case 2:
      return pops::make_pattern(topo, pops::TrafficPattern::kTranspose);
    case 3:
      return pops::make_pattern(topo, pops::TrafficPattern::kPerfectShuffle);
    case 4:
      return pops::make_pattern(topo, pops::TrafficPattern::kGroupReversal);
    default: {
      std::vector<Permutation> within;
      for (int j = 0; j < g; ++j) within.push_back(Permutation::random(d, rng));
      return pops::group_block(d, g, Permutation::random(g, rng), within);
    }
  }
}

}  // namespace

std::vector<Permutation> random_pool(const Topology& topo, std::uint64_t seed,
                                     int count) {
  Rng rng(seed);
  return distinct_pool(count, [&](int) {
    return Permutation::random(topo.processor_count(), rng);
  });
}

std::vector<Permutation> mixed_pool(const Topology& topo, std::uint64_t seed,
                                    int count) {
  Rng rng(seed);
  return distinct_pool(count, [&](int index) {
    if (index % 2 == 0) return Permutation::random(topo.processor_count(), rng);
    const Permutation base = structured(topo, (index / 2) % 6, rng);
    return relabel_within_groups(topo, base, rng);
  });
}

bool same_schedule(const FlatSchedule& a, const FlatSchedule& b) {
  if (a.slot_count() != b.slot_count() ||
      a.transmission_count() != b.transmission_count()) {
    return false;
  }
  for (int s = 0; s < a.slot_count(); ++s) {
    const Span<const pops::Transmission> x = a.slot(s);
    const Span<const pops::Transmission> y = b.slot(s);
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].source != y[i].source || x[i].destination != y[i].destination ||
          x[i].packet != y[i].packet) {
        return false;
      }
    }
  }
  return true;
}

Theorem2Replay::Theorem2Replay(const Topology& topo,
                               pops::ColoringAlgorithm coloring)
    : topo_(topo),
      coloring_alg_(coloring),
      h_(topo.g(), topo.g()),
      h_q_(topo.g(), topo.g()) {}

void Theorem2Replay::run(Span<const int> images, Tracer& tracer,
                         Report& report) {
  const int d = topo_.d();
  const int g = topo_.g();
  const int n = topo_.processor_count();
  if (d == 1) return;  // one direct slot: the engine colors nothing

  h_.reset(g, g);
  for (int source = 0; source < n; ++source) {
    h_.add_edge(topo_.group_of(source),
                topo_.group_of(images[static_cast<std::size_t>(source)]));
  }
  {
    Tracer::Scope span(&tracer, SpanName::kColorH);
    colorer_.color(h_, coloring_alg_, coloring_);
  }
  edges_colored_ += n;
  report.check(coloring_.num_colors == d,
               "replay: the coloring of H does not have exactly d colors");

  for (int lo = 0; lo < d; lo += g) {
    const int hi = std::min(lo + g, d);
    h_q_.reset(g, g);
    for (int source = 0; source < n; ++source) {
      const int c = coloring_.color[static_cast<std::size_t>(source)];
      if (c < lo || c >= hi) continue;
      h_q_.add_edge(topo_.group_of(source),
                    topo_.group_of(images[static_cast<std::size_t>(source)]));
    }
    {
      Tracer::Scope span(&tracer, SpanName::kColorHq);
      colorer_.color(h_q_, coloring_alg_, fair_);
    }
    edges_colored_ += h_q_.edge_count();
    {
      Tracer::Scope span(&tracer, SpanName::kSpread);
      colorer_.spread(h_q_, g, fair_);
    }
    class_size_.assign(static_cast<std::size_t>(g), 0);
    for (int e = 0; e < h_q_.edge_count(); ++e) {
      const int c = fair_.color[static_cast<std::size_t>(e)];
      if (c >= 0 && c < g) ++class_size_[static_cast<std::size_t>(c)];
    }
    const int delta_q = hi - lo;
    report.check(std::all_of(class_size_.begin(), class_size_.end(),
                             [delta_q](int size) { return size == delta_q; }),
                 "replay: a spread class does not hold exactly Delta_q edges");
  }
}

RouteStage::RouteStage(const Topology& topo, RouteStrategy strategy,
                       std::vector<Permutation> pool)
    : topo_(topo), pool_(std::move(pool)), net_(topo) {
  options_.strategy = strategy;
  const int n = topo_.processor_count();
  const int slots = std::max(pops::theorem2_slots(topo_), topo_.d()) + 1;
  results_.resize(pool_.size());
  for (FlatSchedule& result : results_) result.reserve(2 * n, slots);
}

RouteStage::~RouteStage() = default;

namespace {

pops::BatchRouterConfig batch_config() {
  pops::BatchRouterConfig config;
  config.threads = RouteStage::kBatchWorkers;
  return config;
}

}  // namespace

void RouteStage::setup() {
  engine_ = std::make_unique<pops::RoutingEngine>(topo_);
  engine_->route(pool_.front(), options_);
  router_ = std::make_unique<pops::BatchRouter>(topo_, batch_config());
}

double RouteStage::setup_sample() {
  const std::int64_t begin = now_ns();
  {
    pops::RoutingEngine engine(topo_);
    engine.route(pool_.front(), options_);
    const pops::BatchRouter router(topo_, batch_config());
  }
  return static_cast<double>(now_ns() - begin) / 1e9;
}

bool RouteStage::delivers(const FlatSchedule& schedule,
                          const Permutation& pi) {
  net_.reset();
  net_.load_permutation_traffic(pi);
  return net_.execute(schedule) && net_.all_delivered();
}

void RouteStage::verify(Report& report) {
  const int n = topo_.processor_count();
  const int bound = pops::theorem2_slots(topo_);
  reference_.clear();
  reference_.reserve(pool_.size());
  direct_wins_ = 0;
  double slots_sum = 0;
  double over_bound_sum = 0;
  int over_bound_count = 0;
  std::vector<double> delivery_ticks;
  delivery_ticks.reserve(pool_.size() * static_cast<std::size_t>(n));
  std::vector<int> last_slot(static_cast<std::size_t>(n));
  for (const Permutation& pi : pool_) {
    reference_.push_back(engine_->route(pi, options_));
    const FlatSchedule& schedule = reference_.back();
    if (options_.strategy == RouteStrategy::kBest &&
        engine_->last_strategy() == RouteStrategy::kDirect) {
      ++direct_wins_;
    }
    report.attempt(1);
    report.check(delivers(schedule, pi),
                 "schedule rejected or undelivered on the strict simulator: " +
                     net_.failure());
    const int slots = schedule.slot_count();
    const int lower = pops::lower_bound_slots(topo_, pi);
    if (options_.strategy == RouteStrategy::kTheorem2) {
      report.check(slots == bound,
                   "Theorem 2 schedule length differs from theorem2_slots");
    } else {
      report.check(lower <= slots && slots <= bound,
                   "schedule length outside [lower_bound_slots, "
                   "theorem2_slots]");
    }
    slots_sum += slots;
    if (lower > 0) {
      over_bound_sum += static_cast<double>(slots) / lower;
      ++over_bound_count;
    }
    std::fill(last_slot.begin(), last_slot.end(), 0);
    for (int s = 0; s < slots; ++s) {
      for (const pops::Transmission& t : schedule.slot(s)) {
        if (t.packet >= 0 && t.packet < n) {
          last_slot[static_cast<std::size_t>(t.packet)] = s + 1;
        }
      }
    }
    for (int tick : last_slot) delivery_ticks.push_back(tick);
  }
  const double count = static_cast<double>(pool_.size());
  report.set("slots_per_perm", slots_sum / count, "slots");
  report.set("slots_over_bound", ratio(over_bound_sum, over_bound_count),
             "ratio");
  report.set("delay_p50_ticks", quantile(delivery_ticks, 0.50), "ticks");
  report.set("delay_p99_ticks", quantile(delivery_ticks, 0.99), "ticks");
}

void RouteStage::engine_pass(StageTiming& timing, Report& report) {
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    const std::int64_t begin = now_ns();
    const FlatSchedule& schedule = engine_->route(pool_[i], options_);
    const std::int64_t took = now_ns() - begin;
    timing.call_us.push_back(static_cast<double>(took) / 1e3);
    report.attempt(1);
    report.check(same_schedule(schedule, reference_[i]),
                 "engine output differs from its verified reference");
  }
}

void RouteStage::batch_pass(StageTiming& timing, Report& report) {
  for (std::size_t k = 0; k < pool_.size(); k += kBatchSize) {
    const std::size_t count =
        std::min<std::size_t>(kBatchSize, pool_.size() - k);
    const std::int64_t begin = now_ns();
    router_->route_batch(Span<const Permutation>(pool_.data() + k, count),
                         Span<FlatSchedule>(results_.data() + k, count),
                         options_);
    const std::int64_t took = now_ns() - begin;
    timing.call_us.push_back(static_cast<double>(took) / 1e3);
    for (std::size_t i = k; i < k + count; ++i) {
      report.attempt(1);
      report.check(same_schedule(results_[i], reference_[i]),
                   "BatchRouter result differs from the single engine's");
    }
  }
}

void RouteStage::trace_pass(StageTiming& timing, Tracer& tracer,
                            Report& report) {
  if (!replay_engine_) {
    replay_engine_ = std::make_unique<pops::RoutingEngine>(topo_);
    replay_ = std::make_unique<Theorem2Replay>(topo_,
                                               engine_->options().coloring);
  }
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    const Permutation& pi = pool_[i];
    tracer.next_request();
    const Tracer::Scope request(&tracer, SpanName::kRequest);
    const std::int64_t begin = now_ns();
    const FlatSchedule* schedule = nullptr;
    {
      const Tracer::Scope span(&tracer, SpanName::kRoute);
      schedule = &engine_->route(pi, options_);
    }
    const std::int64_t took = now_ns() - begin;
    timing.call_us.push_back(static_cast<double>(took) / 1e3);
    report.attempt(1);
    report.check(same_schedule(*schedule, reference_[i]),
                 "traced engine output differs from its reference");

    replay_->run(Span<const int>(pi.images()), tracer, report);
    {
      const Tracer::Scope span(&tracer, SpanName::kDirect);
      replay_engine_->route_direct(pi);
    }
    {
      const Tracer::Scope span(&tracer, SpanName::kPhaseRoute);
      replay_engine_->route_permutation(Span<const int>(pi.images()));
    }
    net_.reset();
    net_.load_permutation_traffic(pi);
    bool executed = false;
    {
      const Tracer::Scope span(&tracer, SpanName::kExecute);
      executed = net_.execute(reference_[i]);
    }
    report.check(executed && net_.all_delivered(),
                 "traced execution did not deliver every packet");
    executed_ += reference_[i].transmission_count();
  }
}

double RouteStage::direct_win_frac() const {
  if (options_.strategy != RouteStrategy::kBest) return 0;
  return ratio(static_cast<double>(direct_wins_),
               static_cast<double>(pool_.size()));
}

std::size_t RouteStage::scratch_units() const {
  return engine_->scratch_footprint().units +
         router_->scratch_footprint().units;
}

}  // namespace perfbench
