// Shared measurement plumbing for the perfbench binary: a monotonic
// clock, a run deadline, order statistics over samples, and the Report
// that collects metrics and output-check failures for one run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A point `seconds` from construction; stages poll expired() between
/// whole units of work, so a stage never stops half way through a pass.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_ns_(now_ns() + static_cast<std::int64_t>(seconds * 1e9)) {}
  bool expired() const { return now_ns() >= end_ns_; }

 private:
  std::int64_t end_ns_;
};

/// Pins the calling thread to one CPU at a time, moving to the next CPU
/// of the set it started with on every pin_next(). On a shared host one
/// CPU can run far slower than the others for seconds at a time (a busy
/// neighbour on the same core); left to the scheduler, a single-threaded
/// run stays on whichever CPU it started on, and that CPU decides the
/// whole run's figures. Rotating round by round gives every run the
/// same mix of CPUs, so medians over rounds are steady from run to run.
class CpuRotation {
 public:
  CpuRotation() {
#ifdef __linux__
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
      }
    }
#endif
  }

  /// Pins the calling thread to the next CPU of the starting set.
  void pin_next() {
#ifdef __linux__
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
#endif
  }

  /// Lets the calling thread run on the whole starting set again.
  void unpin() {
#ifdef __linux__
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
#endif
  }

 private:
#ifdef __linux__
  cpu_set_t allowed_;
#endif
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// The q-quantile of `values` by linear interpolation between order
/// statistics (the same rule as numpy's default); 0 for no samples.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The q-quantile of each consecutive run of `chunk` samples, then the
/// `over`-quantile of those (the median by default): a burst of
/// interference from the host moves one chunk's figure, not the result.
/// Falls back to the plain quantile when there are fewer than three
/// chunks.
inline double chunked_quantile(const std::vector<double>& values, double q,
                               std::size_t chunk, double over = 0.5) {
  if (values.size() < 3 * chunk) return quantile(values, q);
  std::vector<double> per_chunk;
  for (std::size_t lo = 0; lo + chunk <= values.size(); lo += chunk) {
    per_chunk.push_back(quantile(
        std::vector<double>(values.begin() + static_cast<long>(lo),
                            values.begin() + static_cast<long>(lo + chunk)),
        q));
  }
  return quantile(std::move(per_chunk), over);
}

inline double ratio(double num, double den) {
  return den == 0 ? 0 : num / den;
}

/// Items per second from per-call latencies in microseconds: for each
/// run of `group` consecutive calls, group * items_per_call over the
/// run's summed time, then the median over runs. Short runs confine a
/// host stall (the CPU taken away for milliseconds) to the one sample it
/// falls in; a whole pass as the sample would fold stalls into most
/// samples and move the median with the host's stall rate.
inline double grouped_rate(const std::vector<double>& call_us,
                           double items_per_call, std::size_t group) {
  std::vector<double> rates;
  for (std::size_t lo = 0; lo + group <= call_us.size(); lo += group) {
    double us = 0;
    for (std::size_t i = lo; i < lo + group; ++i) us += call_us[i];
    rates.push_back(ratio(static_cast<double>(group) * items_per_call * 1e6,
                          us));
  }
  return median(std::move(rates));
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metrics of one run plus the output-check ledger. attempted counts
/// operations whose output was checked; every failed check adds one to
/// failed (a run keeps going after a failure so the whole ledger is
/// reported).
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& metric : metrics_) {
      if (metric.name == name) {
        metric.value = value;
        metric.unit = unit;
        return;
      }
    }
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  void attempt(long long operations) { attempted_ += operations; }
  /// Records one failed check; the first few messages are kept for the
  /// human-readable output.
  void fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 16) failures_.push_back(what);
  }
  /// fail(what) unless ok; returns ok.
  bool check(bool ok, const std::string& what) {
    if (!ok) fail(what);
    return ok;
  }

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<Metric> metrics_;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
