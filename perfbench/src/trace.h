// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code around calls into
// the library's public functions (the library itself is not
// instrumented). Each span has a name, a layer, a request id shared by
// every span of one input, and a parent: the span open around it.
// Totals per name (count, total and self time, where self time is the
// duration minus the time covered by direct children) are kept for
// every span; the spans themselves are kept up to a fixed capacity and
// written out as Chrome trace-event JSON when the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

enum class SpanName : int {
  kRequest = 0,        // bench: one input's whole traced unit
  kRoute,              // routing: RoutingEngine::route
  kDirect,             // routing: RoutingEngine::route_direct
  kPhaseRoute,         // routing: route_permutation(Span) on one phase
  kColorH,             // graph: color H (replayed)
  kColorHq,            // graph: color one batch H_q (replayed)
  kSpread,             // graph: spread one batch onto g classes (replayed)
  kColorTraffic,       // graph: color a window's traffic graph (replayed)
  kExecute,            // pops: Network::execute of a schedule
  kAdmit,              // serve: TrafficServer::submit that keeps the window
  kWindow,             // serve: TrafficServer::submit that closes a window
  kCount,
};

const char* span_name(SpanName name);
/// "bench", "graph", "routing", "pops" or "serve".
const char* span_layer(SpanName name);

class Tracer {
 public:
  struct Totals {
    long long count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// Keeps at most `keep` spans for the trace file; totals cover all.
  explicit Tracer(std::size_t keep);

  /// Starts a new request id for the spans that follow.
  void next_request() { ++request_; }

  /// RAII span: open on construction, closed on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanName name) : tracer_(tracer) {
      tracer_->open(name);
    }
    ~Scope() { tracer_->close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  /// Records a leaf span timed by the caller, for calls whose span name
  /// is only known once they return (a submit that closed a window).
  void add(SpanName name, std::int64_t begin_ns, std::int64_t end_ns);

  const Totals& totals(SpanName name) const {
    return totals_[static_cast<std::size_t>(name)];
  }
  /// Mean span duration in microseconds (0 when none was recorded).
  double mean_us(SpanName name) const {
    const Totals& t = totals(name);
    return t.count == 0 ? 0 : static_cast<double>(t.total_ns) / 1e3 /
                                  static_cast<double>(t.count);
  }
  /// Sum of self time over every span of `layer`, in seconds.
  double layer_self_s(const std::string& layer) const;

  /// Writes the kept spans as a Chrome trace-event JSON array.
  bool write(const std::string& path) const;

 private:
  struct Record {
    int name;
    int parent;  // index into records_, -1 for a root
    long long request;
    std::int64_t begin_ns;
    std::int64_t end_ns;
  };
  struct Open {
    int name;
    int record;  // index into records_, -1 when not kept
    std::int64_t begin_ns;
    std::int64_t child_ns;
  };

  void open(SpanName name);
  void close();

  std::size_t keep_;
  std::vector<Record> records_;
  std::array<Open, 8> stack_{};
  int depth_ = 0;
  long long request_ = 0;
  std::array<Totals, static_cast<std::size_t>(SpanName::kCount)> totals_{};
};

}  // namespace perfbench
