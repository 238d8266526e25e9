#include "serve_stage.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "routing/h_relation.h"
#include "routing/router.h"
#include "routing/verify.h"

namespace perfbench {

using pops::Demand;
using pops::Permutation;
using pops::Topology;

namespace {

// Sampled windows checked with verify_h_relation on last_window_plan().
// The check evicts the server's scratch from cache, so the window after
// it runs cold; sampling below 1% keeps that out of window_p99_us.
constexpr long long kVerifyEvery = 256;
// Delays are counted exactly up to this many ticks (larger ones clamp).
constexpr std::size_t kDelayRange = std::size_t{1} << 18;

// The server's padding rule: the phase's demands fix their sources'
// images, then every idle source takes the next unused destination.
void pad_phase(int n, const std::vector<pops::Request>& requests,
               const std::vector<int>& phase, std::vector<int>& image,
               std::vector<char>& used) {
  image.assign(static_cast<std::size_t>(n), -1);
  used.assign(static_cast<std::size_t>(n), 0);
  for (int r : phase) {
    const pops::Request& request = requests[static_cast<std::size_t>(r)];
    image[static_cast<std::size_t>(request.source)] = request.destination;
    used[static_cast<std::size_t>(request.destination)] = 1;
  }
  int next_free = 0;
  for (int& target : image) {
    if (target != -1) continue;
    while (used[static_cast<std::size_t>(next_free)] != 0) ++next_free;
    target = next_free;
    used[static_cast<std::size_t>(next_free)] = 1;
  }
}

// Upper bound of the server histogram's bucket holding `delay`.
std::uint64_t bucket_upper(std::uint64_t delay) {
  int bits = 0;
  while (delay >> bits) ++bits;
  return bits == 0 ? 0 : (std::uint64_t{1} << bits) - 1;
}

}  // namespace

std::vector<Demand> zipf_trace(const Topology& topo, std::uint64_t seed,
                               int count) {
  pops::ArrivalConfig config;
  config.process = pops::ArrivalProcess::kZipfHotGroup;
  config.seed = seed;
  config.mean_gap_ticks = 1;
  pops::ArrivalGenerator generator(topo, config);
  std::vector<Demand> trace;
  trace.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) trace.push_back(generator.next());
  return trace;
}

std::vector<Demand> permutation_trace(const Topology& topo,
                                      const std::vector<Permutation>& pool) {
  const std::uint64_t period =
      static_cast<std::uint64_t>(pops::theorem2_slots(topo));
  std::vector<Demand> trace;
  for (std::size_t k = 0; k < pool.size(); ++k) {
    for (int p = 0; p < pool[k].size(); ++p) {
      trace.push_back(Demand{p, pool[k](p), 1, k * period});
    }
  }
  return trace;
}

ServeStage::ServeStage(const Topology& topo, const pops::ServerConfig& config,
                       std::vector<Demand> trace)
    : topo_(topo),
      config_(config),
      trace_(std::move(trace)),
      lap_ticks_(trace_.back().arrival_tick + 1),
      delay_count_(kDelayRange, 0),
      traffic_(topo.processor_count(), topo.processor_count()),
      net_(topo) {}

ServeStage::~ServeStage() = default;

Demand ServeStage::demand_at(long long index) const {
  const long long laps = index / static_cast<long long>(trace_.size());
  Demand demand = trace_[static_cast<std::size_t>(
      index % static_cast<long long>(trace_.size()))];
  demand.arrival_tick += static_cast<std::uint64_t>(laps) * lap_ticks_;
  return demand;
}

void ServeStage::setup() {
  server_ = std::make_unique<pops::TrafficServer>(topo_, config_);
  warm_units_ = server_->scratch_footprint().units;
  clock_ = server_->now();
}

double ServeStage::setup_sample() const {
  const std::int64_t begin = now_ns();
  { const pops::TrafficServer server(topo_, config_); }
  return static_cast<double>(now_ns() - begin) / 1e9;
}

std::vector<Permutation> ServeStage::capture_phases(int count) {
  pops::TrafficServer capture(topo_, config_);
  std::vector<Permutation> phases;
  std::uint64_t clock = capture.now();
  for (long long i = 0; static_cast<int>(phases.size()) < count; ++i) {
    capture.submit(demand_at(i));
    if (capture.now() == clock) continue;
    clock = capture.now();
    const std::vector<pops::Request> requests = capture.last_window_requests();
    const pops::HRelationPlan plan = capture.last_window_plan();
    for (const pops::HRelationPhase& phase : plan.phases) {
      if (static_cast<int>(phases.size()) == count) break;
      pad_phase(topo_.processor_count(), requests, phase.requests, image_,
                used_);
      phases.emplace_back(image_);
    }
  }
  return phases;
}

void ServeStage::run_chunk(ServeTiming& timing, Report& report,
                           Tracer* tracer) {
  std::int64_t chunk_ns = 0;
  for (int k = 0; k < kChunk; ++k) {
    const Demand demand = demand_at(submitted_);
    const std::int64_t begin = now_ns();
    server_->submit(demand);
    const std::int64_t end = now_ns();
    ++submitted_;
    chunk_ns += end - begin;
    const std::uint64_t clock = server_->now();
    if (clock == clock_) {
      timing.admit_ns_sum += static_cast<double>(end - begin);
      ++timing.admits;
      if (tracer != nullptr) tracer->add(SpanName::kAdmit, begin, end);
      continue;
    }
    timing.window_us.push_back(static_cast<double>(end - begin) / 1e3);
    if (tracer != nullptr) tracer->add(SpanName::kWindow, begin, end);
    window_closed(clock, false, report, tracer);
  }
  report.attempt(kChunk);
  timing.demands += kChunk;
  timing.pass_per_s.push_back(kChunk * 1e9 / static_cast<double>(chunk_ns));
}

void ServeStage::window_closed(std::uint64_t clock, bool flushed,
                               Report& report, Tracer* tracer) {
  const long long pending = flushed ? 0 : server_->pending_demands();
  const long long size = submitted_ - routed_ - pending;
  const std::uint64_t slots =
      static_cast<std::uint64_t>(server_->last_window_slots());
  const std::uint64_t executed_at = clock - slots;
  for (long long j = routed_; j < routed_ + size; ++j) {
    const std::uint64_t arrival = demand_at(j).arrival_tick;
    if (report.check(executed_at >= arrival,
                     "a window executed before one of its demands arrived")) {
      record_delay(executed_at - arrival);
    }
  }
  routed_ += size;
  ++windows_;
  phases_ += server_->last_window_degree();
  if (flushed) {
    ++flushed_windows_;
  } else if (size < config_.max_window_demands) {
    ++degree_closes_;
  }
  clock_ = clock;
  if (tracer != nullptr) replay_window(report, *tracer);
  if (windows_ % kVerifyEvery == 0) verify_window(report);
}

void ServeStage::verify_window(Report& report) {
  const std::string failure = pops::verify_h_relation(
      topo_, server_->last_window_requests(), server_->last_window_plan());
  report.check(failure.empty(), "sampled window failed verify_h_relation: " +
                                    failure);
}

void ServeStage::replay_window(Report& report, Tracer& tracer) {
  const int n = topo_.processor_count();
  if (!replay_engine_) {
    replay_engine_ =
        std::make_unique<pops::RoutingEngine>(topo_, config_.router);
    replay_ = std::make_unique<Theorem2Replay>(topo_, config_.router.coloring);
  }
  const std::vector<pops::Request> requests = server_->last_window_requests();
  const pops::HRelationPlan plan = server_->last_window_plan();
  tracer.next_request();

  traffic_.reset(n, n);
  for (const pops::Request& request : requests) {
    traffic_.add_edge(request.source, request.destination);
  }
  {
    const Tracer::Scope span(&tracer, SpanName::kColorTraffic);
    colorer_.color(traffic_, config_.router.coloring, coloring_);
  }
  traffic_edges_ += static_cast<long long>(requests.size());
  report.check(coloring_.num_colors == plan.h,
               "replay: window traffic coloring does not have h colors");

  for (const pops::HRelationPhase& phase : plan.phases) {
    pad_phase(n, requests, phase.requests, image_, used_);
    {
      const Tracer::Scope span(&tracer, SpanName::kPhaseRoute);
      replay_engine_->route_permutation(pops::Span<const int>(image_));
    }
    replay_->run(pops::Span<const int>(image_), tracer, report);
    const Permutation pi(image_);
    {
      const Tracer::Scope span(&tracer, SpanName::kDirect);
      replay_engine_->route_direct(pi);
    }
  }

  window_schedule_.clear();
  for (const pops::HRelationPhase& phase : plan.phases) {
    for (const pops::SlotPlan& slot : phase.slots) {
      window_schedule_.begin_slot();
      for (const pops::Transmission& t : slot.transmissions) {
        window_schedule_.push(t);
      }
    }
  }
  net_.reset();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    net_.load_packet(pops::Packet{static_cast<int>(i), requests[i].source,
                                  requests[i].destination, 1, 0});
  }
  bool executed = false;
  {
    const Tracer::Scope span(&tracer, SpanName::kExecute);
    executed = net_.execute(window_schedule_);
  }
  report.check(executed && net_.all_delivered(),
               "replayed window did not deliver every demand");
  executed_ += window_schedule_.transmission_count();
}

void ServeStage::record_delay(std::uint64_t delay) {
  ++delay_count_[static_cast<std::size_t>(
      std::min<std::uint64_t>(delay, kDelayRange - 1))];
}

std::uint64_t ServeStage::delay_at_rank(double q) const {
  const long long target =
      std::max(1LL, static_cast<long long>(q * static_cast<double>(routed_) +
                                           0.5));
  long long seen = 0;
  for (std::size_t v = 0; v < delay_count_.size(); ++v) {
    seen += delay_count_[v];
    if (seen >= target) return v;
  }
  return kDelayRange - 1;
}

double ServeStage::delay_quantile(double q) const {
  if (routed_ == 0) return 0;
  const double pos = q * static_cast<double>(routed_ - 1);
  const long long lo = static_cast<long long>(pos);
  // Values at 0-based ranks lo and lo + 1.
  double at_lo = -1;
  double at_hi = -1;
  long long seen = 0;
  for (std::size_t v = 0; v < delay_count_.size() && at_hi < 0; ++v) {
    seen += delay_count_[v];
    if (at_lo < 0 && seen > lo) at_lo = static_cast<double>(v);
    if (seen > std::min(lo + 1, routed_ - 1)) at_hi = static_cast<double>(v);
  }
  return at_lo + (at_hi - at_lo) * (pos - static_cast<double>(lo));
}

void ServeStage::finish(Report& report) {
  server_->flush();
  const std::uint64_t clock = server_->now();
  if (clock != clock_) window_closed(clock, true, report, nullptr);

  const pops::ServerStats stats = server_->stats();
  report.check(stats.demands_routed == submitted_,
               "server routed a different number of demands than submitted");
  report.check(routed_ == submitted_ && stats.windows_routed == windows_,
               "observed windows disagree with the server's counters");
  report.check(stats.slots_executed <= stats.budget_slots,
               "server executed more slots than its h-relation budget");
  report.check(stats.queueing_delay.count == routed_,
               "server delay histogram counts a different number of demands");
  for (const double q : {0.50, 0.99}) {
    report.check(stats.queueing_delay.percentile(q) ==
                     bucket_upper(delay_at_rank(q)),
                 "server delay percentile disagrees with observed delays");
  }
  report.check(server_->scratch_footprint().units == warm_units_,
               "server scratch footprint grew after warm-up");
}

std::size_t ServeStage::scratch_units() const {
  return server_->scratch_footprint().units;
}

double ServeStage::demands_per_window() const {
  return ratio(static_cast<double>(routed_), static_cast<double>(windows_));
}

double ServeStage::degree_close_frac() const {
  return ratio(static_cast<double>(degree_closes_),
               static_cast<double>(windows_ - flushed_windows_));
}

double ServeStage::budget_ratio() const {
  const pops::ServerStats stats = server_->stats();
  return ratio(static_cast<double>(stats.slots_executed),
               static_cast<double>(stats.budget_slots));
}

double ServeStage::useful_packet_frac() const {
  return ratio(static_cast<double>(routed_),
               static_cast<double>(phases_) * topo_.processor_count());
}

long long ServeStage::edges_colored() const {
  return traffic_edges_ + (replay_ ? replay_->edges_colored() : 0);
}

}  // namespace perfbench
