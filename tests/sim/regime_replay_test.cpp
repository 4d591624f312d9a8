// Correlated failure regimes through the replay machinery: a TraceStore
// built from a reliability::FailureRegime must replay bit-identically to the
// regime's own live serial sampler, campaigns over regime traces must be
// bit-identical for every worker count, and every repetition's event stream
// must satisfy the invariant auditor — the same guarantees the renewal
// distributions enjoy, extended to non-renewal processes (DESIGN.md §8).
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "obs/audit_sim.h"
#include "obs/event.h"
#include "reliability/bathtub.h"
#include "reliability/regimes.h"
#include "reliability/weibull.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace shiraz::sim {
namespace {

using reliability::FailureRegimePtr;

constexpr std::uint64_t kSeed = 20180815;
constexpr std::size_t kReps = 8;
constexpr Seconds kHorizon = hours(400.0);

struct RegimeCase {
  std::string label;
  std::function<FailureRegimePtr()> make;
};

/// gtest prints the parameter into each case's ctest name; its default
/// raw-byte dump would embed heap pointers, so the name would move with
/// ASLR. The label keeps it stable.
void PrintTo(const RegimeCase& c, std::ostream* os) { *os << c.label; }

std::vector<RegimeCase> all_cases() {
  return {
      {"RenewalWeibull",
       [] {
         return std::make_unique<reliability::RenewalRegime>(
             std::make_unique<reliability::Weibull>(
                 reliability::Weibull::from_mtbf(0.7, hours(12.0))));
       }},
      {"Bathtub",
       [] {
         return std::make_unique<reliability::RenewalRegime>(
             std::make_unique<reliability::BathtubWeibull>(0.5, hours(8.0), 2.5,
                                                           hours(72.0)));
       }},
      {"MarkovBurst",
       [] {
         reliability::MarkovBurstRegime::Config c;
         c.calm_mtbf = hours(18.0);
         c.calm_shape = 0.7;
         c.burst_mtbf = hours(1.0);
         c.burst_shape = 1.0;
         c.p_calm_to_burst = 0.1;
         c.p_burst_to_calm = 0.3;
         return std::make_unique<reliability::MarkovBurstRegime>(c);
       }},
      {"ClusterOutage",
       [] {
         reliability::ClusterOutageRegime::Config c;
         c.primary_mtbf = hours(36.0);
         c.primary_shape = 0.7;
         c.group_size_mean = 2.0;
         c.spread = hours(0.5);
         return std::make_unique<reliability::ClusterOutageRegime>(c);
       }},
      {"HeteroPools",
       [] {
         return std::make_unique<reliability::HeterogeneousPoolsRegime>(
             std::vector<reliability::HeterogeneousPoolsRegime::Pool>{
                 {0.6, hours(10.0)}, {0.7, hours(30.0)}, {1.2, hours(80.0)}});
       }},
      {"DriftingWeibull",
       [] {
         reliability::DriftingWeibullRegime::Config c;
         c.beta_start = 0.95;
         c.beta_end = 0.55;
         c.mtbf_start = hours(20.0);
         c.mtbf_end = hours(10.0);
         c.ramp = hours(200.0);
         return std::make_unique<reliability::DriftingWeibullRegime>(c);
       }},
  };
}

void expect_identical(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].name, b.apps[i].name);
    EXPECT_EQ(a.apps[i].useful, b.apps[i].useful) << "app " << i;
    EXPECT_EQ(a.apps[i].io, b.apps[i].io) << "app " << i;
    EXPECT_EQ(a.apps[i].lost, b.apps[i].lost) << "app " << i;
    EXPECT_EQ(a.apps[i].restart, b.apps[i].restart) << "app " << i;
    EXPECT_EQ(a.apps[i].checkpoints, b.apps[i].checkpoints) << "app " << i;
    EXPECT_EQ(a.apps[i].failures_hit, b.apps[i].failures_hit) << "app " << i;
  }
  EXPECT_EQ(a.wall, b.wall);
  EXPECT_EQ(a.idle, b.idle);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.switches, b.switches);
}

std::vector<SimJob> make_jobs() {
  return {SimJob::at_oci("lw", 18.0, hours(12.0)),
          SimJob::at_oci("hw", 1800.0, hours(12.0))};
}

class RegimeReplay : public ::testing::TestWithParam<RegimeCase> {};

TEST_P(RegimeReplay, StoreReplayMatchesLiveSerialSampler) {
  const FailureRegimePtr regime = GetParam().make();
  EngineConfig cfg;
  cfg.t_total = kHorizon;
  // The live engine draws through the regime's serial cursor adapter; the
  // replay engine walks the store. Both must agree bit for bit.
  const Engine engine(regime->sampler(kHorizon), cfg);
  const TraceStore traces(*regime, kSeed, kHorizon);
  const std::vector<SimJob> jobs = make_jobs();
  const ShirazPairScheduler shiraz(8);

  for (const std::size_t rep : {std::size_t{0}, std::size_t{3}}) {
    Rng live_rng = Rng(kSeed).fork(rep);
    const SimResult live = engine.run(jobs, shiraz, live_rng);
    const SimResult replayed = engine.replay(jobs, shiraz, traces.trace(rep));
    expect_identical(replayed, live);
  }
}

TEST_P(RegimeReplay, CampaignIsBitIdenticalForEveryWorkerCount) {
  const FailureRegimePtr regime = GetParam().make();
  EngineConfig cfg;
  cfg.t_total = kHorizon;
  const Engine engine(regime->sampler(kHorizon), cfg);
  const TraceStore traces(*regime, kSeed, kHorizon);
  const std::vector<SimJob> jobs = make_jobs();
  const AlternateAtFailure baseline;

  CampaignOptions opts;
  opts.traces = &traces;
  opts.workers = 1;
  const CampaignSummary ref =
      engine.run_campaign(jobs, baseline, kReps, kSeed, opts);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    opts.workers = workers;
    const CampaignSummary got =
        engine.run_campaign(jobs, baseline, kReps, kSeed, opts);
    expect_identical(got.mean, ref.mean);
    EXPECT_EQ(got.total_useful.stddev, ref.total_useful.stddev)
        << "workers=" << workers;
    EXPECT_EQ(got.total_lost.ci95, ref.total_lost.ci95) << "workers=" << workers;
  }
}

TEST_P(RegimeReplay, EveryRepetitionPassesTheInvariantAuditor) {
  const FailureRegimePtr regime = GetParam().make();
  obs::EventRecorder recorder;
  EngineConfig cfg;
  cfg.t_total = kHorizon;
  cfg.sink = &recorder;
  const Engine engine(regime->sampler(kHorizon), cfg);
  const TraceStore traces(*regime, kSeed, kHorizon);
  const std::vector<SimJob> jobs = make_jobs();
  const ShirazPairScheduler shiraz(8);

  for (std::size_t rep = 0; rep < kReps; ++rep) {
    recorder.clear();
    const SimResult res = engine.replay(jobs, shiraz, traces.trace(rep));
    obs::InvariantAuditor auditor;
    for (const obs::Event& e : recorder.events()) auditor.on_event(e);
    EXPECT_NO_THROW(obs::verify_against(auditor, res)) << "rep " << rep;
  }
}

TEST_P(RegimeReplay, StoreMaterializationIsIndependentOfAccessOrder) {
  const FailureRegimePtr regime = GetParam().make();
  const TraceStore fwd(*regime, kSeed, kHorizon);
  const TraceStore rev(*regime, kSeed, kHorizon);
  for (std::size_t r = 0; r < 4; ++r) (void)fwd.trace(r);
  for (std::size_t r = 4; r-- > 0;) (void)rev.trace(r);
  for (std::size_t r = 0; r < 4; ++r) {
    const FailureTrace& a = fwd.trace(r);
    const FailureTrace& b = rev.trace(r);
    ASSERT_EQ(a.size(), b.size()) << "rep " << r;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.gap(i), b.gap(i)) << "rep " << r << " gap " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegimes, RegimeReplay,
                         ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<RegimeCase>& info) {
                           return info.param.label;
                         });

TEST(RegimeReplayEdge, RegimeStoreEnforcesSeedAndHorizonContracts) {
  const auto regime = std::make_unique<reliability::RenewalRegime>(
      std::make_unique<reliability::Weibull>(
          reliability::Weibull::from_mtbf(0.7, hours(12.0))));
  EXPECT_THROW(TraceStore(*regime, kSeed, 0.0), InvalidArgument);

  EngineConfig cfg;
  cfg.t_total = kHorizon;
  const Engine engine(regime->sampler(kHorizon), cfg);
  const TraceStore traces(*regime, kSeed, kHorizon);
  const std::vector<SimJob> jobs = make_jobs();
  const AlternateAtFailure baseline;
  CampaignOptions opts;
  opts.traces = &traces;
  // Seed mismatch between the store and the campaign is rejected.
  EXPECT_THROW(engine.run_many(jobs, baseline, kReps, kSeed + 1, opts),
               InvalidArgument);
  // A store whose horizon stops short of the engine's is rejected.
  EngineConfig long_cfg;
  long_cfg.t_total = kHorizon * 2.0;
  const Engine long_engine(regime->sampler(kHorizon * 2.0), long_cfg);
  EXPECT_THROW(long_engine.run_many(jobs, baseline, kReps, kSeed, opts),
               InvalidArgument);
}

}  // namespace
}  // namespace shiraz::sim
