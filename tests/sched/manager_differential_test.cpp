// Differential oracle for WorkloadManager::run: its stretch loop (one inner
// loop per uninterrupted run of plain checkpointed segments) against the
// per-segment reference loop it replaced (manager_reference.h), every
// CampaignStats and BatchJobRecord field compared bit for bit. The grid
// crosses both policies and both slot fills with restart cost, the Shiraz+
// stretch and a fixed switch point, over Poisson and bursty fleet streams,
// plus scripted event ties where the stretch must end exactly where the
// per-segment round would act.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "checkpoint/oci.h"
#include "core/solver_cache.h"
#include "reliability/weibull.h"
#include "sched/arrivals.h"
#include "sched/manager.h"

#include "manager_reference.h"

namespace shiraz::sched {
namespace {

struct Cell {
  Policy policy;
  SlotFill fill;
};

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  return std::string(info.param.policy == Policy::kBaselineAlternate
                         ? "baseline"
                         : "shiraz") +
         (info.param.fill == SlotFill::kFcfs ? "_fcfs" : "_contrast");
}

/// The knobs the stretch loop must honour: restart downtime moves `now` off
/// segment boundaries, the stretch changes the heavy member's segment, and a
/// fixed k pins the light member's yield point.
struct Knobs {
  Seconds restart_cost;
  unsigned hw_stretch;
  int fixed_pair_k;
};
constexpr Knobs kKnobs[] = {
    {0.0, 1, 0}, {0.0, 1, 5}, {0.0, 3, 0}, {0.0, 3, 5},
    {600.0, 1, 0}, {600.0, 1, 5}, {600.0, 3, 0}, {600.0, 3, 5},
};

std::string describe(const Knobs& k) {
  return "restart_cost " + std::to_string(k.restart_cost) + ", hw_stretch " +
         std::to_string(k.hw_stretch) + ", fixed_pair_k " +
         std::to_string(k.fixed_pair_k);
}

ManagerConfig config_for(const Cell& cell, const Knobs& knobs, Seconds horizon) {
  ManagerConfig cfg;
  cfg.horizon = horizon;
  cfg.nominal_mtbf = hours(5.0);
  cfg.slot_fill = cell.fill;
  cfg.restart_cost = knobs.restart_cost;
  cfg.hw_stretch = knobs.hw_stretch;
  cfg.fixed_pair_k = knobs.fixed_pair_k;
  return cfg;
}

/// One cache for the whole suite: each signature is solved once per
/// process, and cached solutions equal fresh solves.
std::shared_ptr<const core::SolverCache> shared_cache() {
  static const auto cache = std::make_shared<const core::SolverCache>();
  return cache;
}

constexpr std::size_t kJobs = 300;
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

std::vector<BatchJobSpec> fleet_stream(ArrivalRegime regime,
                                       std::uint64_t seed) {
  ArrivalConfig acfg;
  acfg.regime = regime;
  Rng rng = Rng(seed).fork(regime == ArrivalRegime::kPoisson ? 101 : 102);
  return generate_arrivals(fleet_catalog(), acfg, kJobs, rng);
}

/// Runs `jobs` through the manager and the reference with the same config,
/// failure process and seed, and compares every field.
void expect_matches_reference(const ManagerConfig& cfg,
                              const reliability::Distribution& failures,
                              const std::vector<BatchJobSpec>& jobs,
                              Policy policy, std::uint64_t seed) {
  const WorkloadManager mgr(failures, cfg, shared_cache());
  Rng want_rng(seed);
  Rng got_rng(seed);
  const CampaignStats want = reference_run(mgr, failures, jobs, policy, want_rng);
  const CampaignStats got = mgr.run(jobs, policy, got_rng);
  expect_bit_identical(want, got);
}

class WorkloadManagerDifferential : public ::testing::TestWithParam<Cell> {};

TEST_P(WorkloadManagerDifferential, FleetStreamsMatchThePerSegmentLoop) {
  const auto failures = reliability::Weibull::from_mtbf(0.6, hours(5.0));
  for (const ArrivalRegime regime :
       {ArrivalRegime::kPoisson, ArrivalRegime::kBursty}) {
    for (const std::uint64_t seed : kSeeds) {
      const std::vector<BatchJobSpec> jobs = fleet_stream(regime, seed);
      // Enough runway to drain the queue (as exp_fleet_campaign sizes it),
      // and a horizon that cuts the stream short.
      const Seconds drain = hours(1.2 * 10.0 * kJobs + 2000.0);
      for (const Seconds horizon : {drain, 0.4 * jobs.back().submit_time}) {
        for (const Knobs& knobs : kKnobs) {
          SCOPED_TRACE(std::string(to_string(regime)) + " seed " +
                       std::to_string(seed) + " horizon " +
                       std::to_string(horizon) + ", " + describe(knobs));
          expect_matches_reference(config_for(GetParam(), knobs, horizon),
                                   failures, jobs, GetParam().policy, seed);
          if (HasFailure()) return;
        }
      }
    }
  }
}

// The event ties where the stretch ends: each case puts a failure or an
// arrival exactly on (or inside) a segment the stretch is running.
TEST_P(WorkloadManagerDifferential, ScriptedTiesMatchThePerSegmentLoop) {
  const auto young = [](Seconds delta) {
    return checkpoint::optimal_interval(hours(5.0), delta,
                                        checkpoint::OciFormula::kYoung);
  };
  const Seconds d_lw = 100.0;
  const Seconds d_hw = 2500.0;
  const Seconds seg = young(d_lw) + d_lw;
  // The n-th segment boundary of the light job running from t = 0, summed
  // exactly as the loop sums it.
  const auto boundary = [&](int n) {
    Seconds t = 0.0;
    for (int i = 0; i < n; ++i) t = t + young(d_lw) + d_lw;
    return t;
  };
  const Seconds third = boundary(3);

  struct Tie {
    const char* label;
    std::vector<BatchJobSpec> jobs;
    std::vector<Seconds> gaps;
  };
  const Tie ties[] = {
      {"failure exactly at a segment boundary",
       {{"solo", 2.0 * young(600.0), 600.0, 0.0}},
       {young(600.0) + 600.0}},
      {"arrival tied with a failure",
       {{"first", hours(8.0), 300.0, 0.0}, {"tied", hours(8.0), 300.0, 5000.0}},
       {5000.0}},
      {"arrival mid-segment with one slot free",
       {{"light", 10.0 * young(d_lw), d_lw, 0.0},
        {"heavy", hours(1.0), d_hw, 2.5 * seg}},
       {}},
      {"arrival exactly at a segment boundary",
       {{"light", 10.0 * young(d_lw), d_lw, 0.0},
        {"heavy", hours(1.0), d_hw, third}},
       {}},
      {"failure and arrival at the same boundary",
       {{"light", 10.0 * young(d_lw), d_lw, 0.0},
        {"heavy", hours(1.0), d_hw, third}},
       {third}},
      {"failure at the light member's k-th checkpoint",
       {{"light", hours(20.0), d_lw, 0.0}, {"heavy", hours(20.0), d_hw, 0.0}},
       {boundary(5), boundary(5)}},
  };
  for (const Tie& tie : ties) {
    for (const Knobs& knobs : kKnobs) {
      SCOPED_TRACE(std::string(tie.label) + ", " + describe(knobs));
      const ScriptedGaps gaps(tie.gaps);
      expect_matches_reference(config_for(GetParam(), knobs, hours(5000.0)),
                               gaps, tie.jobs, GetParam().policy, 1);
      if (HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyBySlotFill, WorkloadManagerDifferential,
    ::testing::Values(Cell{Policy::kBaselineAlternate, SlotFill::kFcfs},
                      Cell{Policy::kBaselineAlternate, SlotFill::kContrast},
                      Cell{Policy::kShirazPairing, SlotFill::kFcfs},
                      Cell{Policy::kShirazPairing, SlotFill::kContrast}),
    cell_name);

}  // namespace
}  // namespace shiraz::sched
