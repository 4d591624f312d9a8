// Descriptive statistics used throughout the benches and the trace analytics.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace shiraz {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Unbiased sample variance; 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number-style summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

/// Linear-interpolated percentile of a sample, q in [0, 1]: the value at
/// rank q * (n - 1) of the sorted sample, interpolated between its two
/// neighbouring order statistics. Selects them in a copy (select_percentiles).
double percentile(std::vector<double> xs, double q);

/// percentile() at every q in `qs` (each in [0, 1]), written to the matching
/// slot of `out`, by selection instead of a sort: partially reorders `xs`
/// with std::nth_element on shrinking prefixes, largest q first, so reading
/// several quantiles costs about one linear pass each. Each result is
/// bit-identical to interpolating the fully sorted sample. Throws
/// InvalidArgument on an empty sample, a q outside [0, 1], or
/// qs.size() != out.size().
void select_percentiles(std::span<double> xs, std::span<const double> qs,
                        std::span<double> out);

/// Computes a full Summary of `xs`. Throws InvalidArgument when empty.
Summary summarize(const std::vector<double>& xs);

/// Half-width of the (approximately) 95% normal confidence interval of the mean.
double ci95_halfwidth(const RunningStats& stats);

/// Empirical CDF evaluated at `x` over sample `xs` (fraction of values <= x).
double empirical_cdf(const std::vector<double>& xs, double x);

}  // namespace shiraz
