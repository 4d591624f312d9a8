// Order statistics and naming rules shared by every workload.
//
// Latencies are reported as a median plus an upper percentile, and an upper
// percentile is only reported when at least kMinBeyond samples lie beyond
// it: a p99 over 300 samples rests on three values and says nothing about
// the tail, so a run that cannot support its tail fails instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported upper percentile.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank quantile (q in (0, 1]) of an ascending-sorted sample:
/// the smallest value with at least q * n samples at or below it.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (mean of the two middle values when even).
double median(std::vector<double> samples);

/// A latency sample reduced to what the report prints.
struct TailSummary {
  std::size_t n = 0;
  double p50 = 0.0;
  double q = 0.99;      ///< the upper percentile's rank
  double tail = 0.0;    ///< value at rank q
  std::size_t beyond = 0;  ///< samples strictly greater than `tail`

  /// True when the tail rests on at least kMinBeyond samples.
  bool tail_supported() const { return beyond >= kMinBeyond; }
};

TailSummary summarize_tail(std::vector<double> samples, double q = 0.99);

/// Benchmark metric names: non-empty, at most 64 characters of
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(std::string_view name);

/// 64-bit FNV-1a, used to compare response and stream bytes without keeping
/// them: `h` chains one call into the next.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench
