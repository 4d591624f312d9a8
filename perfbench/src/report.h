// What one benchmark invocation prints: human-readable lines first, then as
// the last line of stdout one JSON object
//
//   {"correct":true,"attempted":N,"failed":M,"metrics":{name:{"value":v,"unit":u}}}
//
// whose metrics are exactly the end-to-end set (untraced run) or exactly
// the per-layer set (traced run). Both sets are fixed here, so every
// workload reports the same names; a per-layer metric of a layer a workload
// never calls reads 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every untraced run.
const std::vector<MetricDef>& end_to_end_metrics();
/// Per-layer metrics, reported by every traced run.
const std::vector<MetricDef>& per_layer_metrics();

class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Records a metric of the run's set (end-to-end or per-layer).
  void metric(const std::string& name, double value);

  /// Operations attempted, and those that failed (an error response, an
  /// I/O error, or a failed correctness check). The first failure reasons
  /// are printed.
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n, const std::string& why);

  /// Fails the whole run (e.g. an unsupported tail) without counting an
  /// operation.
  void fail_run(const std::string& why);

  /// Prints one latency line — median, upper percentile, sample count and
  /// samples beyond it — and fails the run when the tail rests on fewer
  /// than kMinBeyond samples.
  void latency(const std::string& label, const TailSummary& s);

  /// Prints the metric table and the final JSON line; returns the process
  /// exit code (0 only when every check passed and every metric is set).
  int finish();

  bool trace() const { return trace_; }

 private:
  bool trace_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool run_failed_ = false;
  std::map<std::string, double> values_;
};

}  // namespace perfbench
