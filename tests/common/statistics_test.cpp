#include "common/statistics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace shiraz {
namespace {

TEST(RunningStats, EmptyIsAllZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, NeverNaN) {
  // The degenerate accumulator states feed straight into bench telemetry
  // (MetricSummary, BENCH_*.json); none of them may poison a mean with NaN.
  RunningStats empty;
  EXPECT_FALSE(std::isnan(empty.mean()));
  EXPECT_FALSE(std::isnan(empty.stddev()));

  RunningStats one;
  one.add(7.0);
  EXPECT_FALSE(std::isnan(one.stddev()));
  EXPECT_DOUBLE_EQ(one.stddev(), 0.0);

  // Identical samples: Welford's m2 must stay exactly 0, never a tiny
  // negative that sqrt() would turn into NaN.
  RunningStats same;
  for (int i = 0; i < 100; ++i) same.add(0.1);
  EXPECT_EQ(same.variance(), 0.0);
  EXPECT_EQ(same.stddev(), 0.0);
}

TEST(RunningStats, KnownSmallSample) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsSingleStream) {
  Rng rng(3);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal() * 3.0 + 1.0;
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);

  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
}

TEST(Percentile, UnsortedInputHandled) {
  std::vector<double> xs{40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.3), 7.0);
}

TEST(Percentile, RejectsEmptyAndBadQ) {
  EXPECT_THROW(percentile({}, 0.5), InvalidArgument);
  EXPECT_THROW(percentile({1.0}, 1.5), InvalidArgument);
  EXPECT_THROW(percentile({1.0}, -0.1), InvalidArgument);
}

// --- selection percentiles vs the sort-based oracle -------------------------
// select_percentiles (and percentile(), which runs on it) must return exactly
// what interpolating the fully sorted sample gives: EXPECT_EQ on doubles.

/// The sort-based interpolation the selection replaced.
double sorted_percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs.front();
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

/// Checks every q of `qs` (in the given order) against the oracle, both
/// through one select_percentiles call and through percentile().
void expect_matches_oracle(const std::vector<double>& xs,
                           const std::vector<double>& qs,
                           const std::string& label) {
  SCOPED_TRACE(label + ", n = " + std::to_string(xs.size()));
  std::vector<double> work = xs;
  std::vector<double> got(qs.size());
  select_percentiles(work, qs, got);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const double want = sorted_percentile(xs, qs[i]);
    EXPECT_EQ(got[i], want) << "q = " << qs[i];
    EXPECT_EQ(percentile(xs, qs[i]), want) << "q = " << qs[i];
  }
  // Selection only reorders: the sample is still the same multiset.
  std::vector<double> a = xs;
  std::sort(a.begin(), a.end());
  std::sort(work.begin(), work.end());
  EXPECT_EQ(a, work);
}

std::vector<double> uniform_sample(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.uniform(0.0, 1e6);
  return xs;
}

const std::vector<double> kSummaryQs{0.50, 0.95, 0.99};
const std::vector<double> kMixedQs{0.5, 0.99, 0.0, 0.95, 1.0, 0.25, 0.75};

TEST(SelectPercentiles, MatchesSortedOracleAcrossSizes) {
  for (const std::size_t n : {1u, 2u, 3u, 100u, 101u, 80'000u}) {
    const std::vector<double> xs = uniform_sample(n, 1000 + n);
    expect_matches_oracle(xs, kSummaryQs, "summary qs");
    expect_matches_oracle(xs, kMixedQs, "mixed-order qs");
  }
}

TEST(SelectPercentiles, HeavyDuplicatesMatchOracle) {
  for (const std::size_t n : {2u, 3u, 100u, 101u, 80'000u}) {
    Rng rng(7 + n);
    std::vector<double> xs(n);
    for (double& x : xs) x = static_cast<double>(rng.uniform_int(1, 3));
    expect_matches_oracle(xs, kSummaryQs, "three distinct values");
    expect_matches_oracle(xs, kMixedQs, "three distinct values");
    const std::vector<double> constant(n, 42.5);
    expect_matches_oracle(constant, kMixedQs, "constant sample");
  }
}

TEST(SelectPercentiles, CollidingRanksAtSmallSizes) {
  // At n = 2 every q below 1 shares rank 0; at n = 3 the p50/p95/p99 ranks
  // all land on 1; at n = 11 and n = 21, q = .95 and .99 share a rank.
  // Repeated qs collide outright.
  for (const std::size_t n : {2u, 3u, 4u, 11u, 21u}) {
    const std::vector<double> xs = uniform_sample(n, 50 + n);
    expect_matches_oracle(xs, kSummaryQs, "summary qs");
    expect_matches_oracle(xs, {0.99, 0.95, 0.5}, "descending qs");
    expect_matches_oracle(xs, {0.95, 0.95, 0.99, 0.5, 0.5}, "repeated qs");
    expect_matches_oracle(xs, {1.0, 1.0, 0.999, 0.0, 0.0}, "extreme qs");
  }
}

TEST(SelectPercentiles, RejectsBadInput) {
  std::vector<double> empty;
  std::vector<double> xs{1.0, 2.0};
  const std::vector<double> q_ok{0.5};
  const std::vector<double> q_bad{1.5};
  std::vector<double> one(1);
  std::vector<double> two(2);
  EXPECT_THROW(select_percentiles(empty, q_ok, one), InvalidArgument);
  EXPECT_THROW(select_percentiles(xs, q_bad, one), InvalidArgument);
  EXPECT_THROW(select_percentiles(xs, q_ok, two), InvalidArgument);
}

TEST(Summarize, FieldsAreConsistent) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-12);
  EXPECT_LT(s.p25, s.median);
  EXPECT_LT(s.median, s.p75);
  EXPECT_LT(s.p75, s.p95);
}

TEST(Summarize, RejectsEmpty) {
  EXPECT_THROW(summarize({}), InvalidArgument);
}

TEST(Ci95, ShrinksWithSampleSize) {
  Rng rng(5);
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 100; ++i) small.add(rng.normal());
  for (int i = 0; i < 10'000; ++i) large.add(rng.normal());
  EXPECT_GT(ci95_halfwidth(small), ci95_halfwidth(large));
}

TEST(Ci95, ZeroForTinySamples) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(ci95_halfwidth(s), 0.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(ci95_halfwidth(s), 0.0);
}

TEST(Ci95, CoversTrueMeanUsually) {
  // 95% CI should cover the true mean in roughly 95% of repetitions.
  Rng master(21);
  int covered = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    Rng rng = master.fork(t);
    RunningStats s;
    for (int i = 0; i < 50; ++i) s.add(rng.normal());
    if (std::fabs(s.mean()) <= ci95_halfwidth(s)) ++covered;
  }
  EXPECT_GT(covered, trials * 85 / 100);
  EXPECT_LT(covered, trials);
}

TEST(EmpiricalCdf, StepsThroughSample) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(empirical_cdf(xs, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(empirical_cdf(xs, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(empirical_cdf(xs, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(empirical_cdf(xs, 10.0), 1.0);
}

TEST(EmpiricalCdf, RejectsEmpty) {
  EXPECT_THROW(empirical_cdf({}, 1.0), InvalidArgument);
}

}  // namespace
}  // namespace shiraz
