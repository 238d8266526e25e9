#include "trace.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

struct SpanInfo {
  const char* name;
  const char* layer;
};

constexpr SpanInfo kSpanInfo[] = {
    {"bench.request", "bench"},      {"routing.route", "routing"},
    {"routing.direct", "routing"},   {"routing.phase_route", "routing"},
    {"graph.color_h", "graph"},      {"graph.color_hq", "graph"},
    {"graph.spread", "graph"},       {"graph.color_traffic", "graph"},
    {"pops.execute", "pops"},        {"serve.admit", "serve"},
    {"serve.window", "serve"},
};
static_assert(sizeof(kSpanInfo) / sizeof(kSpanInfo[0]) ==
                  static_cast<std::size_t>(SpanName::kCount),
              "one SpanInfo per SpanName");

}  // namespace

const char* span_name(SpanName name) {
  return kSpanInfo[static_cast<std::size_t>(name)].name;
}

const char* span_layer(SpanName name) {
  return kSpanInfo[static_cast<std::size_t>(name)].layer;
}

Tracer::Tracer(std::size_t keep) : keep_(keep) { records_.reserve(keep); }

void Tracer::open(SpanName name) {
  if (depth_ == static_cast<int>(stack_.size())) {
    std::fprintf(stderr, "perfbench: spans nested too deeply\n");
    std::abort();
  }
  Open& top = stack_[static_cast<std::size_t>(depth_++)];
  top.name = static_cast<int>(name);
  top.child_ns = 0;
  top.record = -1;
  if (records_.size() < keep_) {
    const int parent =
        depth_ > 1 ? stack_[static_cast<std::size_t>(depth_ - 2)].record : -1;
    top.record = static_cast<int>(records_.size());
    records_.push_back(Record{top.name, parent, request_, 0, 0});
  }
  top.begin_ns = now_ns();
}

void Tracer::close() {
  const std::int64_t end = now_ns();
  const Open& top = stack_[static_cast<std::size_t>(--depth_)];
  const std::int64_t duration = end - top.begin_ns;
  Totals& totals = totals_[static_cast<std::size_t>(top.name)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - top.child_ns;
  if (depth_ > 0) {
    stack_[static_cast<std::size_t>(depth_ - 1)].child_ns += duration;
  }
  if (top.record >= 0) {
    Record& record = records_[static_cast<std::size_t>(top.record)];
    record.begin_ns = top.begin_ns;
    record.end_ns = end;
  }
}

void Tracer::add(SpanName name, std::int64_t begin_ns, std::int64_t end_ns) {
  const std::int64_t duration = end_ns - begin_ns;
  Totals& totals = totals_[static_cast<std::size_t>(name)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration;
  if (depth_ > 0) {
    stack_[static_cast<std::size_t>(depth_ - 1)].child_ns += duration;
  }
  if (records_.size() < keep_) {
    const int parent =
        depth_ > 0 ? stack_[static_cast<std::size_t>(depth_ - 1)].record : -1;
    records_.push_back(
        Record{static_cast<int>(name), parent, request_, begin_ns, end_ns});
  }
}

double Tracer::layer_self_s(const std::string& layer) const {
  std::int64_t ns = 0;
  for (int i = 0; i < static_cast<int>(SpanName::kCount); ++i) {
    if (layer == span_layer(static_cast<SpanName>(i))) {
      ns += totals_[static_cast<std::size_t>(i)].self_ns;
    }
  }
  return static_cast<double>(ns) / 1e9;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::int64_t origin = records_.empty() ? 0 : records_[0].begin_ns;
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const SpanName name = static_cast<SpanName>(r.name);
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"request\":%lld,\"parent\":%d}}%s\n",
                 span_name(name), span_layer(name),
                 static_cast<double>(r.begin_ns - origin) / 1e3,
                 static_cast<double>(r.end_ns - r.begin_ns) / 1e3,
                 r.request, r.parent, i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
