#include "common/statistics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace shiraz {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return n_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return n_ == 0 ? 0.0 : max_; }

double percentile(std::vector<double> xs, double q) {
  double out = 0.0;
  select_percentiles(xs, {&q, 1}, {&out, 1});
  return out;
}

void select_percentiles(std::span<double> xs, std::span<const double> qs,
                        std::span<double> out) {
  SHIRAZ_REQUIRE(!xs.empty(), "percentile of empty sample");
  SHIRAZ_REQUIRE(qs.size() == out.size(), "one output slot per percentile");
  for (const double q : qs) {
    SHIRAZ_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q must be in [0,1]");
  }
  if (xs.size() == 1) {
    std::fill(out.begin(), out.end(), xs.front());
    return;
  }
  std::vector<std::size_t> order(qs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return qs[a] > qs[b]; });

  const std::size_t n = xs.size();
  // [xs.begin(), end) holds the smallest values, unordered. Selecting a q's
  // low order statistic leaves every lower rank before it, so the next
  // (smaller) q partitions only that prefix. `at_end` is the order statistic
  // sitting at `end` once the prefix has shrunk: the previous q's high one.
  auto end = xs.end();
  double at_end = 0.0;
  for (const std::size_t i : order) {
    const double pos = qs[i] * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    const auto lo_it = xs.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(xs.begin(), lo_it, end);
    const double lo_value = *lo_it;
    const double hi_value = hi == lo           ? lo_value
                            : lo_it + 1 < end ? *std::min_element(lo_it + 1, end)
                                              : at_end;
    out[i] = lo_value * (1.0 - frac) + hi_value * frac;
    end = lo_it + 1;
    at_end = hi_value;
  }
}

Summary summarize(const std::vector<double>& xs) {
  SHIRAZ_REQUIRE(!xs.empty(), "summarize of empty sample");
  RunningStats stats;
  for (double x : xs) stats.add(x);
  Summary s;
  s.count = xs.size();
  s.mean = stats.mean();
  s.stddev = stats.stddev();
  s.min = stats.min();
  s.max = stats.max();
  s.p25 = percentile(xs, 0.25);
  s.median = percentile(xs, 0.50);
  s.p75 = percentile(xs, 0.75);
  s.p95 = percentile(xs, 0.95);
  return s;
}

double ci95_halfwidth(const RunningStats& stats) {
  if (stats.count() < 2) return 0.0;
  return 1.96 * stats.stddev() / std::sqrt(static_cast<double>(stats.count()));
}

double empirical_cdf(const std::vector<double>& xs, double x) {
  SHIRAZ_REQUIRE(!xs.empty(), "empirical_cdf of empty sample");
  const auto below =
      std::count_if(xs.begin(), xs.end(), [x](double v) { return v <= x; });
  return static_cast<double>(below) / static_cast<double>(xs.size());
}

}  // namespace shiraz
