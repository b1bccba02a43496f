// Shared pieces of the perfbench binary: the run configuration, the result
// report printed as the last stdout line, order statistics, and the
// self-time analysis of a flight-recorder snapshot.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Partitions per plan and engine pool size, pinned per workload.
  int parallelism = 4;
  int workers = 4;
  /// Identifies the source tree (a content hash, prefixed by the git sha
  /// in a git checkout); keys the exact-counter record.
  std::string source_id = "unknown";
  /// Directory for the exact-counter record; empty disables the cross-run
  /// comparison.
  std::string state_dir;
};

/// A reported metric: its name and unit, fixed for every workload.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// Metric names a run prints: the end-to-end list untraced, the per-layer
/// list traced. Shared by every workload; per-layer metrics of a layer a
/// workload does not exercise read 0.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// The run's outcome.
class Report {
 public:
  void Set(const std::string& name, double value);
  /// Counts one operation; `ok` false counts it as failed.
  void Attempt(bool ok, int64_t n = 1);
  /// Marks the run invalid with a reason printed to stderr.
  void Invalidate(const std::string& reason);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0 && attempted_ > 0; }

  /// Prints the one-line JSON result of the metrics in `defs` (each must
  /// have been Set). Returns false, printing nothing, if one is missing or
  /// not finite.
  bool Print(const std::vector<MetricDef>& defs) const;

 private:
  std::map<std::string, double> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
double PeakRssMb();
/// Seconds on the flight recorder's steady clock (trace::NowNs).
double NowSeconds();

/// Per-span-name aggregate of a trace snapshot. A span's children are the
/// spans of the same thread that lie inside it; its self time is its
/// duration minus the time its direct children cover. Client request spans
/// start at their due time and so may overlap on one receiver thread; only
/// their own self time is skewed by that.
struct SpanAggregate {
  int64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  std::vector<double> durations_ms;
};
std::map<std::string, SpanAggregate> AggregateSpans(
    const std::vector<sfdf::trace::TraceEvent>& events);
/// Prints the aggregate as a table on stderr.
void PrintSpanTable(const std::map<std::string, SpanAggregate>& spans);

/// The workloads. Each fills `report` with every metric of both lists.
void RunPagerankBulk(const Config& config, Report* report);
void RunCcWorkset(const Config& config, Report* report);
void RunServeMixed(const Config& config, Report* report);

}  // namespace perfbench
