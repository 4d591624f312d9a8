// Property tests for the correlated failure regimes (DESIGN.md §8): the
// deterministic sample_gaps contract every regime must honor (the foundation
// of TraceStore replay), per-draw vs batch bit-identity where a per-draw form
// exists, and the hazard-shape/clustering properties that make each regime
// worth having — bursty regimes must actually cluster, the bathtub hazard
// must actually be non-monotone, the drifting beta must actually drift.
#include <cmath>
#include <functional>
#include <latch>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "reliability/bathtub.h"
#include "reliability/fitting.h"
#include "reliability/regimes.h"
#include "reliability/weibull.h"

namespace shiraz::reliability {
namespace {

constexpr std::uint64_t kSeed = 20180808;
constexpr Seconds kHorizon = hours(4000.0);

struct RegimeCase {
  std::string label;
  std::function<FailureRegimePtr()> make;
  /// Relative tolerance on the empirical mean vs mean_gap() (looser for the
  /// regimes whose mean_gap is documented as approximate).
  double mean_tol;
};

/// gtest prints the parameter into each case's ctest name; its default
/// raw-byte dump would embed heap pointers, so the name would move with
/// ASLR. The label keeps it stable.
void PrintTo(const RegimeCase& c, std::ostream* os) { *os << c.label; }

FailureRegimePtr make_markov() {
  MarkovBurstRegime::Config c;
  c.calm_mtbf = hours(36.0);
  c.calm_shape = 0.7;
  c.burst_mtbf = hours(2.0);
  c.burst_shape = 1.0;
  c.p_calm_to_burst = 0.08;
  c.p_burst_to_calm = 0.35;
  return std::make_unique<MarkovBurstRegime>(c);
}

FailureRegimePtr make_cluster() {
  ClusterOutageRegime::Config c;
  c.primary_mtbf = hours(48.0);
  c.primary_shape = 0.7;
  c.group_size_mean = 3.0;
  c.spread = hours(0.5);
  return std::make_unique<ClusterOutageRegime>(c);
}

FailureRegimePtr make_pools() {
  return std::make_unique<HeterogeneousPoolsRegime>(
      std::vector<HeterogeneousPoolsRegime::Pool>{
          {0.6, hours(12.0)}, {0.7, hours(36.0)}, {1.2, hours(96.0)}});
}

FailureRegimePtr make_drift() {
  DriftingWeibullRegime::Config c;
  c.beta_start = 0.95;
  c.beta_end = 0.55;
  c.mtbf_start = hours(30.0);
  c.mtbf_end = hours(18.0);
  c.ramp = hours(2000.0);
  return std::make_unique<DriftingWeibullRegime>(c);
}

std::vector<RegimeCase> all_cases() {
  return {
      {"RenewalWeibull",
       [] {
         return std::make_unique<RenewalRegime>(std::make_unique<Weibull>(
             Weibull::from_mtbf(0.7, hours(24.0))));
       },
       0.15},
      {"RenewalBathtub",
       [] {
         return std::make_unique<RenewalRegime>(std::make_unique<BathtubWeibull>(
             0.5, hours(8.0), 2.5, hours(72.0)));
       },
       0.15},
      {"MarkovBurst", make_markov, 0.15},
      // Cluster mean_gap ignores horizon edge effects; drift mean_gap is a
      // time-average the gap-start times don't sample uniformly.
      {"ClusterOutage", make_cluster, 0.25},
      {"HeteroPools", make_pools, 0.15},
      {"DriftingWeibull", make_drift, 0.25},
  };
}

class RegimeProperty : public ::testing::TestWithParam<RegimeCase> {};

TEST_P(RegimeProperty, SampleGapsIsDeterministic) {
  const FailureRegimePtr regime = GetParam().make();
  std::vector<Seconds> a;
  std::vector<Seconds> b;
  Rng ra(kSeed);
  Rng rb(kSeed);
  regime->sample_gaps(ra, kHorizon, a);
  regime->sample_gaps(rb, kHorizon, b);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "i=" << i;
}

TEST_P(RegimeProperty, SampleGapsHonorsTheHorizonContract) {
  const FailureRegimePtr regime = GetParam().make();
  for (std::uint64_t rep = 0; rep < 4; ++rep) {
    std::vector<Seconds> gaps;
    Rng rng = Rng(kSeed).fork(rep);
    regime->sample_gaps(rng, kHorizon, gaps);
    ASSERT_FALSE(gaps.empty());
    Seconds sum = 0.0;
    for (std::size_t i = 0; i + 1 < gaps.size(); ++i) {
      EXPECT_GT(gaps[i], 0.0) << "i=" << i;
      sum += gaps[i];
    }
    EXPECT_LT(sum, kHorizon) << "all but the last gap stay inside";
    EXPECT_GE(sum + gaps.back(), kHorizon) << "the last gap crosses";
  }
}

TEST_P(RegimeProperty, CloneSamplesBitIdentically) {
  const FailureRegimePtr regime = GetParam().make();
  const FailureRegimePtr copy = regime->clone();
  EXPECT_EQ(copy->name(), regime->name());
  EXPECT_EQ(copy->mean_gap(), regime->mean_gap());
  std::vector<Seconds> a;
  std::vector<Seconds> b;
  Rng ra(kSeed);
  Rng rb(kSeed);
  regime->sample_gaps(ra, kHorizon, a);
  copy->sample_gaps(rb, kHorizon, b);
  EXPECT_EQ(a, b);
}

TEST_P(RegimeProperty, SamplerAdapterReproducesSampleGaps) {
  const FailureRegimePtr regime = GetParam().make();
  std::vector<Seconds> batch;
  Rng rb(kSeed);
  regime->sample_gaps(rb, kHorizon, batch);

  const auto sampler = regime->sampler(kHorizon);
  Rng rl(kSeed);
  Seconds t = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Seconds gap = sampler(rl, t);
    EXPECT_EQ(gap, batch[i]) << "i=" << i;
    t += gap;
  }
  EXPECT_GE(t, kHorizon);
}

TEST_P(RegimeProperty, EmpiricalMeanMatchesMeanGap) {
  const FailureRegimePtr regime = GetParam().make();
  double sum = 0.0;
  std::size_t n = 0;
  for (std::uint64_t rep = 0; rep < 16; ++rep) {
    std::vector<Seconds> gaps;
    Rng rng = Rng(kSeed).fork(rep);
    regime->sample_gaps(rng, kHorizon, gaps);
    for (const Seconds g : gaps) sum += g;
    n += gaps.size();
  }
  const double empirical = sum / static_cast<double>(n);
  EXPECT_NEAR(empirical, regime->mean_gap(),
              GetParam().mean_tol * regime->mean_gap())
      << GetParam().label << ": empirical " << as_hours(empirical)
      << "h vs declared " << as_hours(regime->mean_gap()) << "h";
}

INSTANTIATE_TEST_SUITE_P(AllRegimes, RegimeProperty,
                         ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<RegimeCase>& info) {
                           return info.param.label;
                         });

// --- per-draw vs batch bit-identity where a per-draw form exists ----------

TEST(MarkovBurstRegime, PerDrawFormMatchesBatchBitForBit) {
  MarkovBurstRegime::Config cfg;
  cfg.calm_mtbf = hours(36.0);
  cfg.calm_shape = 0.7;
  cfg.burst_mtbf = hours(2.0);
  cfg.burst_shape = 1.0;
  cfg.p_calm_to_burst = 0.08;
  cfg.p_burst_to_calm = 0.35;
  const MarkovBurstRegime regime(cfg);
  std::vector<Seconds> batch;
  Rng rb(kSeed);
  regime.sample_gaps(rb, kHorizon, batch);

  Rng rd(kSeed);
  auto phase = MarkovBurstRegime::Phase::kCalm;
  Seconds t = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Seconds gap = regime.next_gap(rd, phase);
    EXPECT_EQ(gap, batch[i]) << "i=" << i;
    t += gap;
  }
  EXPECT_GE(t, kHorizon);
}

TEST(DriftingWeibullRegime, GapAtIsAPureFunction) {
  const FailureRegimePtr regime = make_drift();
  const auto* drift = static_cast<const DriftingWeibullRegime*>(regime.get());
  // Same RNG state and gap start give the same gap, whatever came before.
  Rng a(kSeed);
  Rng b(kSeed);
  const Seconds g1 = drift->gap_at(a, hours(100.0));
  const Seconds g2 = drift->gap_at(b, hours(100.0));
  EXPECT_EQ(g1, g2);
  // And its sampler is stateless: no cursor, so mid-stream calls just work.
  const auto sampler = regime->sampler(kHorizon);
  Rng c(kSeed);
  EXPECT_EQ(sampler(c, hours(100.0)), g1);
}

TEST(DriftingWeibullRegime, ParametersDriftLinearlyThenHold) {
  const auto regime = make_drift();
  const auto* drift = static_cast<const DriftingWeibullRegime*>(regime.get());
  EXPECT_DOUBLE_EQ(drift->beta_at(0.0), 0.95);
  EXPECT_DOUBLE_EQ(drift->beta_at(hours(1000.0)), 0.75);  // mid-ramp
  EXPECT_DOUBLE_EQ(drift->beta_at(hours(2000.0)), 0.55);
  EXPECT_DOUBLE_EQ(drift->beta_at(hours(9000.0)), 0.55);  // holds after ramp
  EXPECT_DOUBLE_EQ(drift->mtbf_at(0.0), hours(30.0));
  EXPECT_DOUBLE_EQ(drift->mtbf_at(hours(9000.0)), hours(18.0));
}

// --- hazard-shape and clustering sanity -----------------------------------

TEST(BathtubWeibull, HazardIsNonMonotoneWithAnInteriorMinimum) {
  const BathtubWeibull d(0.5, hours(8.0), 2.5, hours(72.0));
  const auto hazard = [&d](Seconds t) { return d.pdf(t) / (1.0 - d.cdf(t)); };
  const double early = hazard(minutes(30.0));
  const double mid = hazard(hours(24.0));
  const double late = hazard(hours(200.0));
  EXPECT_GT(early, mid) << "infant-mortality arm must dominate early";
  EXPECT_GT(late, mid) << "wear-out arm must dominate late";
}

TEST(BathtubWeibull, QuantileInvertsCdf) {
  const BathtubWeibull d(0.5, hours(8.0), 2.5, hours(72.0));
  for (const double u : {0.01, 0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(d.cdf(d.quantile(u)), u, 1e-10) << "u=" << u;
  }
  EXPECT_EQ(d.quantile(0.0), 0.0);
  EXPECT_THROW(d.quantile(1.0), InvalidArgument);
}

TEST(BathtubWeibull, SampleGapsMatchesSampleLoopBitForBit) {
  const BathtubWeibull d(0.5, hours(8.0), 2.5, hours(72.0));
  std::vector<Seconds> batch;
  Rng rb(kSeed);
  d.sample_gaps(rb, kHorizon, batch);
  Rng rl(kSeed);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(d.sample(rl), batch[i]) << "i=" << i;
  }
}

// The bathtub mean is integrated on the first mean() call, not at
// construction: every route to it returns the bits the eager integral had
// (pinned below for the bathtub-wearout scenario's parameters).
TEST(BathtubMean, FirstUseReturnsTheEagerIntegralsBits) {
  const Seconds eager = 0x1.4c89bfd0b889p+15;
  const auto make = [] { return BathtubWeibull(0.5, hours(8.0), 2.5, hours(72.0)); };
  EXPECT_EQ(make().mean(), eager);

  const BathtubWeibull original = make();
  const DistributionPtr before = original.clone();
  EXPECT_EQ(before->mean(), eager);  // the clone asks first
  EXPECT_EQ(original.mean(), eager);
  const DistributionPtr after = original.clone();
  EXPECT_EQ(after->mean(), eager);

  // Eight threads race the first call (the TSan CI job runs this suite).
  const BathtubWeibull raced = make();
  constexpr std::size_t kThreads = 8;
  std::vector<Seconds> seen(kThreads, 0.0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      seen[i] = raced.mean();
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads; ++i) EXPECT_EQ(seen[i], eager) << "thread " << i;
}

/// Gaps from `regime` over reps forked off kSeed, concatenated per rep.
std::vector<std::vector<Seconds>> sample_reps(const FailureRegime& regime,
                                              std::size_t reps) {
  std::vector<std::vector<Seconds>> out(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    Rng rng = Rng(kSeed).fork(r);
    regime.sample_gaps(rng, kHorizon, out[r]);
  }
  return out;
}

TEST(MarkovBurstRegime, BurstsProduceClusteringAndAutocorrelation) {
  // Sticky phases (mean run ~20 gaps) and an exponential calm state: the
  // lag-1 autocorrelation of raw gaps is then dominated by the phase
  // alternation instead of the calm distribution's own variance, so the
  // clustering signal is structural rather than marginal.
  MarkovBurstRegime::Config cfg;
  cfg.calm_mtbf = hours(48.0);
  cfg.calm_shape = 1.0;
  cfg.burst_mtbf = hours(0.5);
  cfg.burst_shape = 1.0;
  cfg.p_calm_to_burst = 0.05;
  cfg.p_burst_to_calm = 0.05;
  const FailureRegimePtr bursty = std::make_unique<MarkovBurstRegime>(cfg);
  const RenewalRegime renewal(
      std::make_unique<Weibull>(Weibull::from_mtbf(0.7, bursty->mean_gap())));

  double bursty_disp = 0.0;
  double renewal_disp = 0.0;
  double bursty_ac = 0.0;
  const Seconds window = kHorizon / 24.0;
  const std::size_t reps = 8;
  for (std::size_t r = 0; r < reps; ++r) {
    Rng rb = Rng(kSeed).fork(r);
    Rng rr = Rng(kSeed).fork(r);
    std::vector<Seconds> bg;
    std::vector<Seconds> rg;
    bursty->sample_gaps(rb, kHorizon, bg);
    renewal.sample_gaps(rr, kHorizon, rg);
    bursty_disp += count_index_of_dispersion(bg, window);
    renewal_disp += count_index_of_dispersion(rg, window);
    bursty_ac += gap_lag1_autocorrelation(bg);
  }
  bursty_disp /= static_cast<double>(reps);
  renewal_disp /= static_cast<double>(reps);
  bursty_ac /= static_cast<double>(reps);

  EXPECT_GT(bursty_disp, renewal_disp)
      << "Markov modulation must over-disperse counts vs a same-mean renewal";
  EXPECT_GT(bursty_disp, 1.0) << "clustering factor must exceed Poisson";
  EXPECT_GT(bursty_ac, 0.05) << "short gaps must follow short gaps";
}

TEST(ClusterOutageRegime, ClustersOverDisperseCounts) {
  const FailureRegimePtr clustered = make_cluster();
  const RenewalRegime renewal(
      std::make_unique<Weibull>(Weibull::from_mtbf(0.7, clustered->mean_gap())));
  const Seconds window = kHorizon / 24.0;
  double clustered_disp = 0.0;
  double renewal_disp = 0.0;
  const std::size_t reps = 8;
  for (std::size_t r = 0; r < reps; ++r) {
    Rng rc = Rng(kSeed).fork(r);
    Rng rr = Rng(kSeed).fork(r);
    std::vector<Seconds> cg;
    std::vector<Seconds> rg;
    clustered->sample_gaps(rc, kHorizon, cg);
    renewal.sample_gaps(rr, kHorizon, rg);
    clustered_disp += count_index_of_dispersion(cg, window);
    renewal_disp += count_index_of_dispersion(rg, window);
  }
  EXPECT_GT(clustered_disp / reps, renewal_disp / reps)
      << "cascades must cluster failures beyond a same-mean renewal";
}

TEST(DriftingWeibullRegime, FittingRecoversTheShapeTrend) {
  // Split each repetition's gaps at the ramp midpoint by absolute start time
  // and fit a Weibull to each half: the early fit must see a higher shape
  // than the late fit (0.95 -> 0.55 over the ramp).
  const FailureRegimePtr regime = make_drift();
  std::vector<Seconds> early;
  std::vector<Seconds> late;
  for (std::uint64_t r = 0; r < 16; ++r) {
    std::vector<Seconds> gaps;
    Rng rng = Rng(kSeed).fork(r);
    regime->sample_gaps(rng, kHorizon, gaps);
    Seconds t = 0.0;
    for (const Seconds g : gaps) {
      (t < hours(1000.0) ? early : late).push_back(g);
      t += g;
    }
  }
  const auto fit_early = fit_weibull_mle(early);
  const auto fit_late = fit_weibull_mle(late);
  EXPECT_GT(fit_early.shape, fit_late.shape)
      << "early beta " << fit_early.shape << " vs late " << fit_late.shape;
  EXPECT_NEAR(fit_early.shape, 0.9, 0.15);
  EXPECT_LT(fit_late.shape, 0.75);
}

// --- constructor validation and adapter misuse ----------------------------

TEST(FailureRegimes, ConstructorsRejectBadParameters) {
  MarkovBurstRegime::Config m;
  m.calm_mtbf = hours(36.0);
  m.burst_mtbf = hours(48.0);  // burst slower than calm
  m.p_calm_to_burst = 0.1;
  m.p_burst_to_calm = 0.3;
  EXPECT_THROW(MarkovBurstRegime{m}, InvalidArgument);

  ClusterOutageRegime::Config c;
  c.primary_mtbf = hours(48.0);
  c.primary_shape = 0.7;
  c.group_size_mean = 3.0;
  c.spread = hours(96.0);  // spread beyond the primary MTBF
  EXPECT_THROW(ClusterOutageRegime{c}, InvalidArgument);

  EXPECT_THROW(HeterogeneousPoolsRegime({{0.7, hours(24.0)}}), InvalidArgument);

  DriftingWeibullRegime::Config d;
  d.beta_start = 0.9;
  d.beta_end = 0.5;
  d.mtbf_start = hours(30.0);
  d.mtbf_end = hours(18.0);
  d.ramp = 0.0;  // no ramp
  EXPECT_THROW(DriftingWeibullRegime{d}, InvalidArgument);

  EXPECT_THROW(BathtubWeibull(1.2, hours(8.0), 2.5, hours(72.0)),
               InvalidArgument);  // infant arm must decrease
  EXPECT_THROW(BathtubWeibull(0.5, hours(8.0), 0.9, hours(72.0)),
               InvalidArgument);  // wear arm must increase

  EXPECT_THROW(RenewalRegime{nullptr}, InvalidArgument);
}

TEST(FailureRegimes, CursorSamplerThrowsWhenDrawnPastTheHorizon) {
  const FailureRegimePtr regime = make_markov();
  const auto sampler = regime->sampler(hours(100.0));
  Rng rng(kSeed);
  Seconds t = 0.0;
  while (t < hours(100.0)) t += sampler(rng, t);
  EXPECT_THROW(sampler(rng, t), InvalidArgument);
}

// --- statistics helpers ----------------------------------------------------

TEST(RegimeStatistics, DispersionOfPeriodicGapsIsNearZero) {
  // 100 equal gaps: every window holds the same count, variance ~ 0.
  std::vector<Seconds> gaps(100, hours(1.0));
  EXPECT_LT(count_index_of_dispersion(gaps, hours(10.0)), 0.2);
}

TEST(RegimeStatistics, HelpersValidateTheirInputs) {
  EXPECT_THROW(count_index_of_dispersion({hours(1.0)}, hours(10.0)),
               InvalidArgument);  // spans < 2 windows
  EXPECT_THROW(gap_lag1_autocorrelation({1.0, 2.0}), InvalidArgument);
  // Constant gaps: autocorrelation undefined (zero variance).
  EXPECT_THROW(gap_lag1_autocorrelation({1.0, 1.0, 1.0, 1.0}), InvalidArgument);
}

TEST(RegimeStatistics, AlternatingGapsHaveNegativeLag1Autocorrelation) {
  std::vector<Seconds> gaps;
  for (int i = 0; i < 50; ++i) {
    gaps.push_back(hours(1.0));
    gaps.push_back(hours(5.0));
  }
  EXPECT_LT(gap_lag1_autocorrelation(gaps), -0.5);
}

}  // namespace
}  // namespace shiraz::reliability
