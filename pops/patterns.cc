#include "pops/patterns.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace pops {
namespace {

Permutation group_reversal(const Topology& topo) {
  const int n = topo.processor_count();
  std::vector<int> images(as_size(n));
  for (int p = 0; p < n; ++p) {
    images[as_size(p)] = topo.processor(topo.g() - 1 - topo.group_of(p),
                                        topo.index_in_group(p));
  }
  return Permutation(std::move(images));
}

// Out-shuffle riffle: interleave the first ceil(n/2) processors with
// the rest (0 stays first; for odd n the middle element maps last).
// This is the classic shuffle-exchange round generalized to any n.
Permutation perfect_shuffle(const Topology& topo) {
  const int n = topo.processor_count();
  const int half = (n + 1) / 2;
  std::vector<int> images(as_size(n));
  for (int p = 0; p < n; ++p) {
    images[as_size(p)] = p < half ? 2 * p : 2 * (p - half) + 1;
  }
  return Permutation(std::move(images));
}

// Matrix transpose of the g x d processor grid: (group, index) ->
// index * g + group, i.e. the new group is the old in-group index.
// Self-inverse exactly when d == g.
Permutation transpose(const Topology& topo) {
  const int n = topo.processor_count();
  std::vector<int> images(as_size(n));
  for (int p = 0; p < n; ++p) {
    images[as_size(p)] = topo.index_in_group(p) * topo.g() + topo.group_of(p);
  }
  return Permutation(std::move(images));
}

}  // namespace

std::string to_string(TrafficPattern pattern) {
  switch (pattern) {
    case TrafficPattern::kIdentity:
      return "identity";
    case TrafficPattern::kGroupReversal:
      return "group-reversal";
    case TrafficPattern::kPerfectShuffle:
      return "perfect-shuffle";
    case TrafficPattern::kTranspose:
      return "transpose";
    case TrafficPattern::kSeededRandom:
      return "seeded-random";
  }
  POPS_CHECK(false, "unknown TrafficPattern");
  return "";
}

Permutation make_pattern(const Topology& topo, TrafficPattern pattern,
                         std::uint64_t seed) {
  switch (pattern) {
    case TrafficPattern::kIdentity:
      return Permutation::identity(topo.processor_count());
    case TrafficPattern::kGroupReversal:
      return group_reversal(topo);
    case TrafficPattern::kPerfectShuffle:
      return perfect_shuffle(topo);
    case TrafficPattern::kTranspose:
      return transpose(topo);
    case TrafficPattern::kSeededRandom: {
      Rng rng(seed);
      return Permutation::random(topo.processor_count(), rng);
    }
  }
  POPS_CHECK(false, "unknown TrafficPattern");
  return Permutation::identity(1);
}

std::string to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kUniform:
      return "uniform";
    case ArrivalProcess::kZipfHotGroup:
      return "zipf-hot-group";
    case ArrivalProcess::kBurstyOnOff:
      return "bursty-on-off";
  }
  POPS_CHECK(false, "unknown ArrivalProcess");
  return "";
}

ArrivalGenerator::ArrivalGenerator(const Topology& topo,
                                   const ArrivalConfig& config)
    : topo_(topo), config_(config), rng_(config.seed) {
  POPS_CHECK(config_.mean_gap_ticks >= 0,
             "ArrivalConfig: mean_gap_ticks must be >= 0");
  // next() draws gaps up to 2 * mean_gap_ticks + 1 as an int.
  POPS_CHECK(config_.mean_gap_ticks <=
                 (std::numeric_limits<int>::max() - 1) / 2,
             "ArrivalConfig: mean_gap_ticks is too large");
  if (config_.process == ArrivalProcess::kZipfHotGroup) {
    POPS_CHECK(config_.zipf_exponent > 0,
               "ArrivalConfig: zipf_exponent must be positive");
    // Cumulative (r+1)^-s weights over the g destination-group ranks,
    // normalized to end at 1. Built once; next() only binary-searches.
    zipf_cdf_.resize(as_size(topo_.g()));
    double total = 0;
    for (int r = 0; r < topo_.g(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1),
                              config_.zipf_exponent);
      zipf_cdf_[as_size(r)] = total;
    }
    for (double& value : zipf_cdf_) value /= total;
  }
  if (config_.process == ArrivalProcess::kBurstyOnOff) {
    POPS_CHECK(config_.mean_burst_length >= 1,
               "ArrivalConfig: mean_burst_length must be >= 1");
    POPS_CHECK(config_.mean_off_gap_ticks >= 1,
               "ArrivalConfig: mean_off_gap_ticks must be >= 1");
    // next() draws bursts and idle gaps up to twice their means.
    POPS_CHECK(config_.mean_burst_length <=
                   std::numeric_limits<int>::max() / 2,
               "ArrivalConfig: mean_burst_length is too large");
    POPS_CHECK(config_.mean_off_gap_ticks <=
                   std::numeric_limits<int>::max() / 2,
               "ArrivalConfig: mean_off_gap_ticks is too large");
  }
}

int ArrivalGenerator::draw_destination(int source) {
  const int n = topo_.processor_count();
  int destination;
  if (config_.process == ArrivalProcess::kZipfHotGroup) {
    const double u = rng_.next_double();
    const auto it =
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    const int group = std::min(
        as_int(static_cast<std::size_t>(it - zipf_cdf_.begin())),
        topo_.g() - 1);
    destination = topo_.processor(group, rng_.next_below(topo_.d()));
  } else {
    destination = rng_.next_below(n);
  }
  // Self-demands carry no traffic; bump deterministically (a no-op
  // only on the one-processor topology).
  if (destination == source && n > 1) {
    destination = (destination + 1) % n;
  }
  return destination;
}

Demand ArrivalGenerator::next() {
  const int mean_gap = config_.mean_gap_ticks;
  switch (config_.process) {
    case ArrivalProcess::kUniform:
    case ArrivalProcess::kZipfHotGroup:
      if (mean_gap > 0) {
        next_tick_ +=
            static_cast<std::uint64_t>(rng_.next_below(2 * mean_gap + 1));
      }
      break;
    case ArrivalProcess::kBurstyOnOff:
      if (burst_remaining_ == 0) {
        burst_remaining_ =
            rng_.uniform_int(1, 2 * config_.mean_burst_length - 1);
        next_tick_ += static_cast<std::uint64_t>(
            rng_.uniform_int(1, 2 * config_.mean_off_gap_ticks));
      } else if (mean_gap > 0) {
        next_tick_ +=
            static_cast<std::uint64_t>(rng_.next_below(mean_gap + 1));
      }
      --burst_remaining_;
      break;
  }
  Demand demand;
  demand.source = rng_.next_below(topo_.processor_count());
  demand.destination = draw_destination(demand.source);
  demand.payload = config_.payload_flits;
  demand.arrival_tick = next_tick_;
  return demand;
}

SlotPlan one_to_all(const Topology& topo, int source) {
  POPS_CHECK(source >= 0 && source < topo.processor_count(),
             "one_to_all: source out of range");
  SlotPlan slot;
  slot.transmissions.reserve(as_size(topo.processor_count()));
  for (int p = 0; p < topo.processor_count(); ++p) {
    slot.transmissions.push_back(Transmission{source, p, -1});
  }
  return slot;
}

}  // namespace pops
