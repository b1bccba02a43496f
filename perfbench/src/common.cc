#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

void Report::Set(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::Attempt(bool ok, int64_t n) {
  attempted_ += n;
  if (!ok) failed_ += n;
}

void Report::Invalidate(const std::string& reason) {
  std::fprintf(stderr, "perfbench: run invalid: %s\n", reason.c_str());
  correct_ = false;
}

namespace {

std::string FormatNumber(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

}  // namespace

bool Report::Print(const std::vector<MetricDef>& defs) const {
  std::ostringstream out;
  bool finite = true;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = metrics_.find(defs[i].name);
    if (it == metrics_.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   defs[i].name);
      return false;
    }
    if (!std::isfinite(it->second)) finite = false;
    out << (i == 0 ? "" : ", ") << "\"" << defs[i].name
        << "\": {\"value\": " << FormatNumber(it->second)
        << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  out << "}}";
  if (!finite) {
    std::fprintf(stderr, "perfbench: a metric is not finite\n");
    return false;
  }
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return true;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"update_p50_ms", "ms"},
      {"read_p50_ms", "ms"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"error_frac", "frac"},
      {"achieved_rps", "1/s"},
      {"update_p99_ms", "ms"},
      {"read_p99_ms", "ms"},
      {"gen.late_max_ms", "ms"},
      {"gen.late_frac", "frac"},
      {"graph.generate_s", "s"},
      {"dataflow.plan_build_ms", "ms"},
      {"optimizer.optimize_ms", "ms"},
      {"executor.run_ms", "ms"},
      {"executor.supersteps", "count"},
      {"executor.superstep0_ms", "ms"},
      {"executor.superstep_p50_ms", "ms"},
      {"router.records_shipped", "count"},
      {"router.records_combined", "count"},
      {"router.bytes_shipped", "bytes"},
      {"router.combine_ratio", "frac"},
      {"exchange.queue_depth_hw", "count"},
      {"exchange.pool_hit_ratio", "frac"},
      {"solution.lookups", "count"},
      {"solution.delta_applied", "count"},
      {"solution.delta_discarded", "count"},
      {"workset.records", "count"},
      {"superstep.per_step_ms", "ms"},
      {"superstep.decide_ms", "ms"},
      {"engine.tasks", "count"},
      {"engine.queue_wait_ms", "ms"},
      {"engine.queue_wait_per_task_us", "us"},
      {"engine.busy_ms", "ms"},
      {"engine.utilization", "frac"},
      {"service.rounds", "count"},
      {"service.avg_batch", "count"},
      {"service.round_p50_ms", "ms"},
      {"service.rejected", "count"},
      {"net.ping_rtt_p50_us", "us"},
      {"gateway.frames_in", "count"},
      {"gateway.reads_paused", "count"},
      {"gateway.request_ms", "ms"},
      {"floor.csr_s", "s"},
      {"floor.gap_x", "x"},
      {"obs.trace_overhead_frac", "frac"},
      {"obs.spans_lost", "count"},
  };
  return defs;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double NowSeconds() {
  return static_cast<double>(sfdf::trace::NowNs()) / 1e9;
}

std::map<std::string, SpanAggregate> AggregateSpans(
    const std::vector<sfdf::trace::TraceEvent>& events) {
  std::map<uint32_t, std::vector<const sfdf::trace::TraceEvent*>> by_thread;
  for (const auto& event : events) {
    if (event.is_span()) by_thread[event.tid].push_back(&event);
  }
  std::map<std::string, SpanAggregate> out;
  for (auto& [tid, spans] : by_thread) {
    // Outer spans first at equal start, so a parent precedes its children.
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });
    std::vector<std::pair<const sfdf::trace::TraceEvent*, int64_t>> open;
    auto close = [&](const sfdf::trace::TraceEvent* span, int64_t child_ns) {
      SpanAggregate& agg = out[span->name];
      const double ms = static_cast<double>(span->dur_ns) / 1e6;
      agg.count += 1;
      agg.total_ms += ms;
      agg.self_ms +=
          static_cast<double>(std::max<int64_t>(0, span->dur_ns - child_ns)) /
          1e6;
      agg.durations_ms.push_back(ms);
    };
    for (const auto* span : spans) {
      while (!open.empty() &&
             open.back().first->ts_ns + open.back().first->dur_ns <=
                 span->ts_ns) {
        close(open.back().first, open.back().second);
        open.pop_back();
      }
      if (!open.empty()) open.back().second += span->dur_ns;
      open.emplace_back(span, 0);
    }
    while (!open.empty()) {
      close(open.back().first, open.back().second);
      open.pop_back();
    }
  }
  return out;
}

void PrintSpanTable(const std::map<std::string, SpanAggregate>& spans) {
  std::fprintf(stderr, "%-24s %10s %12s %12s %12s\n", "span", "count",
               "total_ms", "self_ms", "p50_ms");
  for (const auto& [name, agg] : spans) {
    std::fprintf(stderr, "%-24s %10lld %12.3f %12.3f %12.4f\n", name.c_str(),
                 static_cast<long long>(agg.count), agg.total_ms, agg.self_ms,
                 Median(agg.durations_ms));
  }
}

}  // namespace perfbench
