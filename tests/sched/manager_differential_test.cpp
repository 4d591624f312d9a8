// Differential oracle for WorkloadManager::run: its stretch loop (one inner
// loop per uninterrupted run of plain checkpointed segments) and its
// cost-class contrast fill against the per-segment reference loop with the
// backlog-scanning fill (manager_reference.h), every CampaignStats and
// BatchJobRecord field compared bit for bit. The grid crosses both policies
// and both slot fills with restart cost, the Shiraz+ stretch and a fixed
// switch point, over Poisson and bursty fleet streams (and one 10k-job
// bursty stream), plus scripted event ties where the stretch must end
// exactly where the per-segment round would act. The contrast fill also
// meets all-distinct costs and scripted fills at its edges: cross-class
// ties, a class head not yet due, jobs submitted at the fill instant, and
// repeated costs behind a taken class head.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
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

std::string label(const Cell& cell) {
  return std::string(cell.policy == Policy::kBaselineAlternate ? "baseline"
                                                               : "shiraz") +
         (cell.fill == SlotFill::kFcfs ? "_fcfs" : "_contrast");
}

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  return label(info.param);
}

constexpr Cell kContrastCells[] = {
    {Policy::kBaselineAlternate, SlotFill::kContrast},
    {Policy::kShirazPairing, SlotFill::kContrast},
};

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

/// `jobs` with every checkpoint cost made distinct: job i's cost scaled by
/// 1 + i·1e-6, far too little to reach another catalog class.
std::vector<BatchJobSpec> with_distinct_costs(std::vector<BatchJobSpec> jobs) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].checkpoint_cost *= 1.0 + 1e-6 * static_cast<double>(i);
  }
  return jobs;
}

/// Runs `jobs` through the manager and the reference with the same config,
/// failure process and seed, compares every field, and returns the
/// manager's campaign.
CampaignStats expect_matches_reference(const ManagerConfig& cfg,
                                       const reliability::Distribution& failures,
                                       const std::vector<BatchJobSpec>& jobs,
                                       Policy policy, std::uint64_t seed) {
  const WorkloadManager mgr(failures, cfg, shared_cache());
  Rng want_rng(seed);
  Rng got_rng(seed);
  const CampaignStats want = reference_run(mgr, failures, jobs, policy, want_rng);
  CampaignStats got = mgr.run(jobs, policy, got_rng);
  expect_bit_identical(want, got);
  return got;
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

// A 10k-job bursty stream (exp_fleet_campaign's default one) builds the deep
// backlogs the 300-job streams rarely reach: a fill meets ~100 queued jobs.
TEST_P(WorkloadManagerDifferential, TenThousandJobBurstyStreamMatchesThePerSegmentLoop) {
  ArrivalConfig acfg;
  acfg.regime = ArrivalRegime::kBursty;
  Rng arrival_rng = Rng(20186060).fork(102);
  const std::vector<BatchJobSpec> jobs =
      generate_arrivals(fleet_catalog(), acfg, 10'000, arrival_rng);
  const auto failures = reliability::Weibull::from_mtbf(0.6, hours(5.0));
  const Seconds drain = hours(1.2 * 10.0 * 10'000 + 2000.0);
  for (const Knobs& knobs : {kKnobs[0], kKnobs[7]}) {
    SCOPED_TRACE(describe(knobs));
    expect_matches_reference(config_for(GetParam(), knobs, drain), failures,
                             jobs, GetParam().policy, 7);
    if (HasFailure()) return;
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

// The contrast fill compares one head per cost class; with every cost
// distinct each class is a single job and the fill meets the whole backlog.
// Every pair is a new solve signature here, so Shiraz runs at a fixed k.
TEST(WorkloadManagerContrastFill, DistinctCostStreamsMatchThePerSegmentLoop) {
  const auto failures = reliability::Weibull::from_mtbf(0.6, hours(5.0));
  const Seconds drain = hours(1.2 * 10.0 * kJobs + 2000.0);
  for (const Cell cell : kContrastCells) {
    for (const ArrivalRegime regime :
         {ArrivalRegime::kPoisson, ArrivalRegime::kBursty}) {
      const std::vector<BatchJobSpec> jobs =
          with_distinct_costs(fleet_stream(regime, kSeeds[0]));
      std::set<Seconds> costs;
      for (const BatchJobSpec& job : jobs) costs.insert(job.checkpoint_cost);
      ASSERT_EQ(costs.size(), jobs.size());
      for (const Knobs& knobs : kKnobs) {
        if (knobs.fixed_pair_k == 0) continue;
        SCOPED_TRACE(label(cell) + ", " + to_string(regime) + ", " +
                     describe(knobs));
        expect_matches_reference(config_for(cell, knobs, drain), failures, jobs,
                                 cell.policy, kSeeds[0]);
        if (HasFailure()) return;
      }
    }
  }
}

// Scripted contrast fills against one occupant, "O" (checkpoint cost 4 s,
// far more work than the scenario lasts). A failure at t = 0 moves the
// baseline's alternation to the second slot, so under either policy the
// job filled beside O runs — Shiraz runs the light member first and the
// heavy one until the next failure, which never comes — and completes in
// one segment before O does: every fill is made against O.
struct ContrastScenario {
  const char* label;
  std::vector<BatchJobSpec> jobs;
  /// Job names in the order the fills must start them.
  std::vector<const char*> start_order;
};

/// A job short enough to complete in its first segment.
BatchJobSpec brief(const char* name, Seconds cost, Seconds submit) {
  return {name, 10.0, cost, submit};
}

TEST(WorkloadManagerContrastFill, ScriptedFillsMatchThePerSegmentLoop) {
  // The occupant's cost sits halfway (in log) between 2 s and 8 s, so both
  // contrast exactly as much: the earlier-queued one must win.
  ASSERT_EQ(std::abs(std::log(2.0 / 4.0)), std::abs(std::log(8.0 / 4.0)));
  const BatchJobSpec occupant{"O", hours(100.0), 4.0, 0.0};
  const BatchJobSpec first_partner = brief("P", 1.0, 0.0);
  const ContrastScenario scenarios[] = {
      {"cross-class tie, 2 s queued first",
       {occupant, first_partner, brief("X", 2.0, 1.0), brief("Y", 8.0, 2.0)},
       {"P", "X", "Y"}},
      {"cross-class tie, 8 s queued first",
       {occupant, first_partner, brief("Y", 8.0, 1.0), brief("X", 2.0, 2.0)},
       {"P", "Y", "X"}},
      // H1 is taken at t = 0, so its class's head becomes H2, which is not
      // due for 1000 h and contrasts more with O than the due X does.
      {"class head not yet due behind a due job of another class",
       {occupant, brief("H1", 64.0, 0.0), brief("X", 2.0, 1.0),
        brief("H2", 64.0, hours(1000.0))},
       {"H1", "X", "H2"}},
      // A and B are submitted at the instant of the first fill: both are
      // due, and B contrasts more.
      {"jobs submitted at the fill instant",
       {occupant, brief("A", 2.0, 0.0), brief("B", 64.0, 0.0)},
       {"B", "A"}},
      // Y1 and X tie and Y1 is older; once Y1 is taken its class's head is
      // Y2, which ties with X again but is younger.
      {"repeated costs behind a taken class head",
       {occupant, first_partner, brief("Y1", 8.0, 1.0), brief("X", 2.0, 2.0),
        brief("Y2", 8.0, 3.0)},
       {"P", "Y1", "X", "Y2"}},
  };
  const ScriptedGaps gaps({0.0});
  for (const Cell cell : kContrastCells) {
    for (const ContrastScenario& scenario : scenarios) {
      for (const Knobs& knobs : kKnobs) {
        SCOPED_TRACE(std::string(scenario.label) + ", " + label(cell) + ", " +
                     describe(knobs));
        const CampaignStats got = expect_matches_reference(
            config_for(cell, knobs, hours(5000.0)), gaps, scenario.jobs,
            cell.policy, 1);
        for (std::size_t i = 1; i < scenario.start_order.size(); ++i) {
          EXPECT_LT(got.job(scenario.start_order[i - 1]).start_time,
                    got.job(scenario.start_order[i]).start_time)
              << scenario.start_order[i - 1] << " must start before "
              << scenario.start_order[i];
        }
        if (HasFailure()) return;
      }
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
