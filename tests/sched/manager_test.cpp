#include "sched/manager.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "checkpoint/oci.h"
#include "common/error.h"
#include "obs/metrics.h"
#include "reliability/exponential.h"
#include "reliability/weibull.h"

#include "manager_reference.h"

namespace shiraz::sched {
namespace {

ManagerConfig exa_config() {
  ManagerConfig cfg;
  cfg.horizon = hours(5000.0);
  cfg.nominal_mtbf = hours(5.0);
  return cfg;
}

reliability::Weibull exa_failures() {
  return reliability::Weibull::from_mtbf(0.6, hours(5.0));
}

/// A calm machine: failures effectively never happen.
reliability::Exponential calm() { return reliability::Exponential(hours(1e9)); }

Seconds young_interval(Seconds delta) {
  return checkpoint::optimal_interval(hours(5.0), delta,
                                      checkpoint::OciFormula::kYoung);
}

std::vector<BatchJobSpec> mixed_pair(Seconds work = hours(100.0)) {
  return {{"light", work, 18.0, 0.0}, {"heavy", work, 1800.0, 0.0}};
}

TEST(WorkloadManager, FailureFreeJobsCompleteWithExactWork) {
  const WorkloadManager mgr(calm(), exa_config());
  Rng rng(1);
  const CampaignStats stats =
      mgr.run(mixed_pair(hours(50.0)), Policy::kBaselineAlternate, rng);
  EXPECT_EQ(stats.completed_count(), 2u);
  for (const auto& job : stats.jobs) {
    EXPECT_NEAR(job.useful, hours(50.0), 1e-6) << job.name;
    EXPECT_DOUBLE_EQ(job.lost, 0.0) << job.name;
    EXPECT_TRUE(job.completed());
  }
  // With no failures the baseline never switches: the first job runs start to
  // finish, then the second.
  EXPECT_LT(stats.jobs[0].completion_time, stats.jobs[1].completion_time);
}

TEST(WorkloadManager, MakespanAccountsForCheckpointOverhead) {
  const WorkloadManager mgr(calm(), exa_config());
  Rng rng(2);
  const CampaignStats stats =
      mgr.run(mixed_pair(hours(50.0)), Policy::kBaselineAlternate, rng);
  EXPECT_GT(stats.makespan, hours(100.0));  // work + checkpoints
  EXPECT_NEAR(stats.makespan,
              hours(100.0) + stats.total_io(), 1.0);
}

TEST(WorkloadManager, ArrivalsAreRespected) {
  const WorkloadManager mgr(calm(), exa_config());
  std::vector<BatchJobSpec> jobs{{"early", hours(10.0), 60.0, 0.0},
                                 {"late", hours(10.0), 60.0, hours(500.0)}};
  Rng rng(3);
  const CampaignStats stats = mgr.run(jobs, Policy::kBaselineAlternate, rng);
  EXPECT_GE(stats.job("late").start_time, hours(500.0));
  EXPECT_GT(stats.idle, hours(400.0));  // machine idles between the jobs
}

TEST(WorkloadManager, MetricsCountJobsAndSolveRouteWithoutChangingResults) {
  const WorkloadManager plain(exa_failures(), exa_config());
  Rng rng_a(7);
  const CampaignStats want =
      plain.run(mixed_pair(hours(200.0)), Policy::kShirazPairing, rng_a);

  obs::MetricsRegistry registry;
  ManagerConfig armed = exa_config();
  armed.metrics = &registry;
  const WorkloadManager counted(exa_failures(), armed);
  Rng rng_b(7);
  const CampaignStats got =
      counted.run(mixed_pair(hours(200.0)), Policy::kShirazPairing, rng_b);

  // Pure observation: the campaign's numbers are untouched by the registry.
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.total_useful(), got.total_useful());
  EXPECT_EQ(want.total_io(), got.total_io());
  EXPECT_EQ(want.failures, got.failures);

  EXPECT_EQ(registry.counter("shiraz_sched_jobs_submitted_total").value(), 2u);
  EXPECT_EQ(registry.counter("shiraz_sched_jobs_completed_total").value(),
            got.completed_count());
  // One pair signature, default config: the analytical SolverCache route,
  // solved exactly once thanks to the memo.
  EXPECT_EQ(registry.counter("shiraz_sched_solve_analytical_total").value(), 1u);
  EXPECT_EQ(registry.counter("shiraz_sched_solve_fixed_total").value(), 0u);
  EXPECT_EQ(registry.counter("shiraz_sched_solve_sim_total").value(), 0u);
}

TEST(WorkloadManager, CompletionThatRefillsTheSlotResolvesThePairOnce) {
  // Three jobs at t = 0 on a calm machine: the pair forms at t = 0, and the
  // first completion refills the slot from the queue — two pair changes.
  // The refill resolves inside slot activation; the completion must not
  // resolve the same pair a second time.
  obs::MetricsRegistry registry;
  ManagerConfig cfg = exa_config();
  cfg.metrics = &registry;
  const WorkloadManager mgr(calm(), cfg);
  const std::vector<BatchJobSpec> jobs{{"light", hours(20.0), 18.0, 0.0},
                                       {"heavy", hours(40.0), 1800.0, 0.0},
                                       {"mid", hours(20.0), 300.0, 0.0}};
  Rng rng(3);
  const CampaignStats stats = mgr.run(jobs, Policy::kShirazPairing, rng);
  EXPECT_EQ(stats.completed_count(), 3u);
  EXPECT_EQ(registry.counter("shiraz_sched_solve_analytical_total").value(), 2u);
}

TEST(WorkloadManager, RunMemoHitsSharedCacheOncePerSignature) {
  // A multi-class stream, all submitted at t = 0 on a calm machine under
  // FCFS: the pair forms once and every completion while the queue is
  // non-empty refills the slot, so there are exactly n - 1 pair changes. The
  // route counter counts each of them; the shared cache sees each distinct
  // (delta_LW, delta_HW) signature once per run — one lookup per signature,
  // all misses on a fresh cache.
  const Seconds costs[] = {18.0, 300.0, 1800.0};
  std::vector<BatchJobSpec> jobs;
  for (int i = 0; i < 30; ++i) {
    jobs.push_back({"job" + std::to_string(i), hours(10.0 + (i % 4)),
                    costs[i % 3], 0.0});
  }
  obs::MetricsRegistry registry;
  ManagerConfig cfg = exa_config();
  cfg.metrics = &registry;
  const WorkloadManager mgr(calm(), cfg);
  const obs::Counter& route =
      registry.counter("shiraz_sched_solve_analytical_total");

  Rng r1(1);
  EXPECT_EQ(mgr.run(jobs, Policy::kShirazPairing, r1).completed_count(),
            jobs.size());
  const core::SolverCache::Stats first = mgr.solver_cache()->stats();
  const std::size_t signatures = mgr.solver_cache()->size();
  EXPECT_EQ(route.value(), jobs.size() - 1);
  EXPECT_GE(signatures, 2u);
  EXPECT_LT(signatures, jobs.size() - 1);
  EXPECT_EQ(first.misses, signatures);
  EXPECT_EQ(first.hits, 0u);

  // A second run of the same calm stream meets the same signatures: one
  // hit each, no new solves.
  Rng r2(2);
  mgr.run(jobs, Policy::kShirazPairing, r2);
  const core::SolverCache::Stats second = mgr.solver_cache()->stats();
  EXPECT_EQ(route.value(), 2 * (jobs.size() - 1));
  EXPECT_EQ(second.misses, signatures);
  EXPECT_EQ(second.hits, signatures);
}

TEST(WorkloadManager, FailuresCauseRollbacksAndLostWork) {
  const WorkloadManager mgr(exa_failures(), exa_config());
  Rng rng(4);
  const CampaignStats stats =
      mgr.run(mixed_pair(hours(200.0)), Policy::kBaselineAlternate, rng);
  EXPECT_GT(stats.failures, 0.0);
  EXPECT_GT(stats.total_lost(), 0.0);
  // Completed jobs must still account exactly their required work as useful.
  for (const auto& job : stats.jobs) {
    if (job.completed()) EXPECT_NEAR(job.useful, hours(200.0), 1e-6);
  }
}

TEST(WorkloadManager, ShirazPairingBeatsBaselineThroughput) {
  // The paper's core claim carried into the batch setting: for a
  // heavy/light job mix, Shiraz pairing completes the same work sooner.
  ManagerConfig cfg = exa_config();
  cfg.horizon = hours(20'000.0);
  const WorkloadManager mgr(exa_failures(), cfg);
  std::vector<BatchJobSpec> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back({"light" + std::to_string(i), hours(400.0), 18.0, 0.0});
    jobs.push_back({"heavy" + std::to_string(i), hours(400.0), 1800.0, 0.0});
  }
  const CampaignStats base =
      mgr.run_many(jobs, Policy::kBaselineAlternate, 10, 2024);
  const CampaignStats shiraz = mgr.run_many(jobs, Policy::kShirazPairing, 10, 2024);
  EXPECT_LT(shiraz.total_lost(), base.total_lost());
  EXPECT_LE(shiraz.makespan, base.makespan * 1.01);
}

TEST(WorkloadManager, ShirazPlusStretchCutsIo) {
  ManagerConfig plain = exa_config();
  ManagerConfig plus = exa_config();
  plus.hw_stretch = 3;
  const WorkloadManager mgr_plain(exa_failures(), plain);
  const WorkloadManager mgr_plus(exa_failures(), plus);
  const auto jobs = mixed_pair(hours(500.0));
  const CampaignStats a = mgr_plain.run_many(jobs, Policy::kShirazPairing, 8, 7);
  const CampaignStats b = mgr_plus.run_many(jobs, Policy::kShirazPairing, 8, 7);
  EXPECT_LT(b.job("heavy").io, a.job("heavy").io);
}

TEST(WorkloadManager, HorizonCutsUnfinishedJobs) {
  ManagerConfig cfg = exa_config();
  cfg.horizon = hours(10.0);
  const WorkloadManager mgr(calm(), cfg);
  Rng rng(6);
  const CampaignStats stats =
      mgr.run(mixed_pair(hours(100.0)), Policy::kBaselineAlternate, rng);
  EXPECT_EQ(stats.completed_count(), 0u);
  EXPECT_DOUBLE_EQ(stats.makespan, hours(10.0));
}

TEST(WorkloadManager, SingleJobRunsAlone) {
  const WorkloadManager mgr(exa_failures(), exa_config());
  Rng rng(7);
  const CampaignStats stats = mgr.run({{"solo", hours(30.0), 300.0, 0.0}},
                                      Policy::kShirazPairing, rng);
  EXPECT_EQ(stats.completed_count(), 1u);
  EXPECT_NEAR(stats.job("solo").useful, hours(30.0), 1e-6);
}

TEST(WorkloadManager, QueueDrainsMoreThanTwoJobs) {
  const WorkloadManager mgr(calm(), exa_config());
  std::vector<BatchJobSpec> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back({"job" + std::to_string(i), hours(20.0), 120.0, 0.0});
  }
  Rng rng(8);
  const CampaignStats stats = mgr.run(jobs, Policy::kShirazPairing, rng);
  EXPECT_EQ(stats.completed_count(), 6u);
}

TEST(WorkloadManager, DeterministicPerSeed) {
  const WorkloadManager mgr(exa_failures(), exa_config());
  Rng r1(9);
  Rng r2(9);
  const CampaignStats a = mgr.run(mixed_pair(), Policy::kShirazPairing, r1);
  const CampaignStats b = mgr.run(mixed_pair(), Policy::kShirazPairing, r2);
  expect_bit_identical(a, b);
}

TEST(WorkloadManager, RejectsBadInput) {
  const WorkloadManager mgr(calm(), exa_config());
  Rng rng(10);
  EXPECT_THROW(mgr.run({}, Policy::kBaselineAlternate, rng), InvalidArgument);
  EXPECT_THROW(mgr.run({{"bad", 0.0, 60.0, 0.0}}, Policy::kBaselineAlternate, rng),
               InvalidArgument);
  EXPECT_THROW(mgr.run({{"bad", hours(1.0), 0.0, 0.0}}, Policy::kBaselineAlternate,
                       rng),
               InvalidArgument);
  ManagerConfig bad;
  bad.horizon = 0.0;
  EXPECT_THROW(WorkloadManager(calm(), bad), InvalidArgument);
}

TEST(CampaignStats, TurnaroundHelpers) {
  CampaignStats stats;
  BatchJobRecord a;
  a.name = "a";
  a.submit_time = 0.0;
  a.completion_time = 100.0;
  BatchJobRecord b;
  b.name = "b";
  b.submit_time = 50.0;
  b.completion_time = 250.0;
  BatchJobRecord c;  // never completed
  c.name = "c";
  stats.jobs = {a, b, c};
  EXPECT_EQ(stats.completed_count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean_turnaround(), 150.0);
  EXPECT_DOUBLE_EQ(stats.max_turnaround(), 200.0);
  EXPECT_THROW(stats.job("missing"), InvalidArgument);
}

// --- run_many accounting regressions -------------------------------------
// run_many used to keep repetition 0's start_time forever, truncate count
// means to integers, and average completion times over all reps (dropping
// unfinished reps' absence into the mean). These pin the fixed semantics
// against manually averaged per-rep runs (rep r always draws
// Rng(seed).fork(r), the run_many contract).

TEST(WorkloadManager, RunManyAveragesStartTimesAcrossReps) {
  const WorkloadManager mgr(exa_failures(), exa_config());
  const std::vector<BatchJobSpec> jobs{{"a", hours(100.0), 60.0, 0.0},
                                       {"b", hours(100.0), 900.0, 0.0},
                                       {"late", hours(100.0), 300.0, 0.0}};
  Rng r0 = Rng(2024).fork(0);
  Rng r1 = Rng(2024).fork(1);
  const CampaignStats rep0 = mgr.run(jobs, Policy::kBaselineAlternate, r0);
  const CampaignStats rep1 = mgr.run(jobs, Policy::kBaselineAlternate, r1);
  const CampaignStats mean =
      mgr.run_many(jobs, Policy::kBaselineAlternate, 2, 2024);
  // "late" starts when the first slot frees, which depends on the failure
  // stream — so the two reps must disagree and the mean must average them.
  ASSERT_NE(rep0.job("late").start_time, rep1.job("late").start_time);
  EXPECT_DOUBLE_EQ(
      mean.job("late").start_time,
      0.5 * (rep0.job("late").start_time + rep1.job("late").start_time));
  EXPECT_EQ(mean.job("late").started_reps, 2u);
  EXPECT_EQ(mean.reps, 2u);
}

TEST(WorkloadManager, RunManyReportsFractionalCountMeans) {
  const WorkloadManager mgr(exa_failures(), exa_config());
  const auto jobs = mixed_pair(hours(150.0));
  Rng r0 = Rng(7).fork(0);
  Rng r1 = Rng(7).fork(1);
  const CampaignStats rep0 = mgr.run(jobs, Policy::kShirazPairing, r0);
  const CampaignStats rep1 = mgr.run(jobs, Policy::kShirazPairing, r1);
  const CampaignStats mean = mgr.run_many(jobs, Policy::kShirazPairing, 2, 7);
  EXPECT_DOUBLE_EQ(mean.failures, 0.5 * (rep0.failures + rep1.failures));
  EXPECT_DOUBLE_EQ(
      mean.job("light").checkpoints,
      0.5 * (rep0.job("light").checkpoints + rep1.job("light").checkpoints));
  EXPECT_DOUBLE_EQ(mean.job("heavy").failures_hit,
                   0.5 * (rep0.job("heavy").failures_hit +
                          rep1.job("heavy").failures_hit));
  // The point of the fix: an odd failure-count sum yields a .5 mean instead
  // of silently truncating to an integer (seed 7 gives an odd sum).
  ASSERT_NE(rep0.failures, rep1.failures);
  EXPECT_NE(mean.failures, std::floor(mean.failures));
}

TEST(WorkloadManager, CompletionTimeAveragesOnlyCompletedReps) {
  ManagerConfig cfg = exa_config();
  cfg.horizon = hours(36.0);
  const WorkloadManager mgr(exa_failures(), cfg);
  const std::vector<BatchJobSpec> jobs{{"solo", hours(30.0), 300.0, 0.0}};
  const std::size_t reps = 8;
  const std::uint64_t seed = 99;
  double sum = 0.0;
  std::size_t done = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    Rng rng = Rng(seed).fork(r);
    const CampaignStats one = mgr.run(jobs, Policy::kBaselineAlternate, rng);
    if (one.job("solo").completed()) {
      sum += one.job("solo").completion_time;
      ++done;
    }
  }
  // The seed is chosen so the 36 h horizon splits the reps: some finish the
  // 30 h job, some are cut off — the dropout case the old mean biased.
  ASSERT_GT(done, 0u);
  ASSERT_LT(done, reps);
  const CampaignStats mean =
      mgr.run_many(jobs, Policy::kBaselineAlternate, reps, seed);
  EXPECT_EQ(mean.job("solo").completed_reps, done);
  EXPECT_DOUBLE_EQ(mean.job("solo").completion_time,
                   sum / static_cast<double>(done));
  EXPECT_DOUBLE_EQ(mean.completion_rate(),
                   static_cast<double>(done) / static_cast<double>(reps));
}

// --- restart cost ---------------------------------------------------------

TEST(WorkloadManager, RestartCostChargedAsLostTime) {
  const Seconds delta = 600.0;
  const std::vector<BatchJobSpec> jobs{{"solo", hours(10.0), delta, 0.0}};
  const ScriptedGaps gaps({2000.0});  // one mid-segment failure at t = 2000
  ManagerConfig free_cfg = exa_config();
  ManagerConfig paid_cfg = exa_config();
  paid_cfg.restart_cost = 600.0;
  Rng r1(1);
  Rng r2(1);
  const CampaignStats free_run =
      WorkloadManager(gaps, free_cfg).run(jobs, Policy::kBaselineAlternate, r1);
  const CampaignStats paid_run =
      WorkloadManager(gaps, paid_cfg).run(jobs, Policy::kBaselineAlternate, r2);
  // The failure destroys the 2000 s in flight; the paid config adds the
  // 600 s restart downtime on top, charged to the job that rolls back.
  EXPECT_DOUBLE_EQ(free_run.job("solo").lost, 2000.0);
  EXPECT_DOUBLE_EQ(paid_run.job("solo").lost, 2600.0);
  EXPECT_NEAR(paid_run.job("solo").completion_time,
              free_run.job("solo").completion_time + 600.0, 1e-6);
  EXPECT_DOUBLE_EQ(paid_run.job("solo").useful, free_run.job("solo").useful);
}

TEST(WorkloadManager, DefaultRestartCostKeepsOutputsBitIdentical) {
  ManagerConfig explicit_zero = exa_config();
  explicit_zero.restart_cost = 0.0;
  const WorkloadManager a(exa_failures(), exa_config());
  const WorkloadManager b(exa_failures(), explicit_zero);
  const CampaignStats sa = a.run_many(mixed_pair(), Policy::kShirazPairing, 4, 42);
  const CampaignStats sb = b.run_many(mixed_pair(), Policy::kShirazPairing, 4, 42);
  expect_bit_identical(sa, sb);
}

// --- event-tie and switch-window edge cases -------------------------------

TEST(WorkloadManager, FailureAtSegmentBoundaryDestroysNothing) {
  const Seconds delta = 600.0;
  const Seconds interval = young_interval(delta);
  const std::vector<BatchJobSpec> jobs{{"solo", 2.0 * interval, delta, 0.0}};
  // The failure lands exactly when the first checkpoint commits: the
  // checkpoint wins the tie, so nothing in flight is destroyed.
  const ScriptedGaps gaps({interval + delta});
  const WorkloadManager mgr(gaps, exa_config());
  Rng rng(1);
  const CampaignStats stats = mgr.run(jobs, Policy::kBaselineAlternate, rng);
  const BatchJobRecord& job = stats.job("solo");
  EXPECT_DOUBLE_EQ(job.lost, 0.0);
  EXPECT_DOUBLE_EQ(job.checkpoints, 1.0);
  EXPECT_DOUBLE_EQ(job.useful, 2.0 * interval);
  ASSERT_TRUE(job.completed());
  EXPECT_NEAR(job.completion_time, 2.0 * interval + delta, 1e-6);
  EXPECT_DOUBLE_EQ(stats.failures, 1.0);
  EXPECT_DOUBLE_EQ(job.failures_hit, 1.0);
}

TEST(WorkloadManager, ArrivalTiedWithFailureStartsImmediately) {
  const Seconds t_tie = 5000.0;
  const std::vector<BatchJobSpec> jobs{{"first", hours(8.0), 300.0, 0.0},
                                       {"tied", hours(8.0), 300.0, t_tie}};
  const ScriptedGaps gaps({t_tie});  // failure exactly at the arrival instant
  const WorkloadManager mgr(gaps, exa_config());
  Rng rng(1);
  const CampaignStats stats = mgr.run(jobs, Policy::kBaselineAlternate, rng);
  EXPECT_DOUBLE_EQ(stats.job("tied").start_time, t_tie);
  EXPECT_DOUBLE_EQ(stats.failures, 1.0);
  EXPECT_EQ(stats.completed_count(), 2u);
  EXPECT_DOUBLE_EQ(stats.idle, 0.0);
}

TEST(WorkloadManager, PairActivationResetsSwitchWindow) {
  const Seconds d_lw = 100.0;
  const Seconds d_hw = 2500.0;
  const Seconds seg = young_interval(d_lw) + d_lw;
  // The light job runs alone for three segments; the heavy job arrives mid
  // third segment and activates at that segment's boundary, 3 * seg.
  const std::vector<BatchJobSpec> jobs{
      {"light", 10.0 * young_interval(d_lw), d_lw, 0.0},
      {"heavy", hours(1.0), d_hw, 2.5 * seg}};
  ManagerConfig cfg = exa_config();
  cfg.fixed_pair_k = 3;
  const WorkloadManager mgr(calm(), cfg);
  Rng rng(1);
  const CampaignStats stats = mgr.run(jobs, Policy::kShirazPairing, rng);
  // The k-window opens at activation: the light job takes k = 3 *more*
  // checkpoints after 3 * seg before the heavy job first computes — the
  // three it took before the pair existed don't count against the window.
  EXPECT_NEAR(stats.job("heavy").start_time, 3.0 * seg, 1e-6);
  EXPECT_NEAR(stats.job("heavy").completion_time, 6.0 * seg + hours(1.0), 1e-6);
  EXPECT_DOUBLE_EQ(stats.job("heavy").lost, 0.0);
  EXPECT_EQ(stats.completed_count(), 2u);
}

TEST(WorkloadManager, ContrastSlotFillPairsExtremes) {
  // At t = 0 the occupant is "light" (head of queue); FCFS gives the free
  // slot to the older "mid", contrast to the farther-apart "heavy".
  const std::vector<BatchJobSpec> jobs{{"light", hours(20.0), 10.0, 0.0},
                                       {"mid", hours(20.0), 200.0, 0.0},
                                       {"heavy", hours(20.0), 3000.0, 0.0}};
  ManagerConfig contrast = exa_config();
  contrast.slot_fill = SlotFill::kContrast;
  Rng r1(5);
  Rng r2(5);
  const CampaignStats f = WorkloadManager(calm(), exa_config())
                              .run(jobs, Policy::kShirazPairing, r1);
  const CampaignStats c =
      WorkloadManager(calm(), contrast).run(jobs, Policy::kShirazPairing, r2);
  EXPECT_DOUBLE_EQ(f.job("mid").start_time, 0.0);
  EXPECT_GT(f.job("heavy").start_time, 0.0);
  EXPECT_DOUBLE_EQ(c.job("heavy").start_time, 0.0);
  EXPECT_GT(c.job("mid").start_time, 0.0);
  EXPECT_EQ(f.completed_count(), 3u);
  EXPECT_EQ(c.completed_count(), 3u);
}

// --- accounting invariant and worker-count invariance ----------------------

struct InvariantCase {
  Policy policy;
  std::size_t workers;
};

std::string invariant_name(const ::testing::TestParamInfo<InvariantCase>& info) {
  return std::string(info.param.policy == Policy::kBaselineAlternate
                         ? "baseline"
                         : "shiraz") +
         "_workers" + std::to_string(info.param.workers);
}

class AccountingInvariant : public ::testing::TestWithParam<InvariantCase> {
 protected:
  static std::vector<BatchJobSpec> jobs() {
    // Staggered arrivals with a long quiet stretch, so idle time shows up in
    // the books alongside useful/io/lost.
    return {{"a", hours(50.0), 60.0, 0.0},
            {"b", hours(50.0), 1200.0, hours(2.0)},
            {"c", hours(50.0), 300.0, hours(400.0)}};
  }
};

TEST_P(AccountingInvariant, TimeIsConservedAcrossReps) {
  const WorkloadManager mgr(exa_failures(), exa_config());
  const CampaignRunOptions opts{GetParam().workers, nullptr};
  const CampaignStats mean =
      mgr.run_many(jobs(), GetParam().policy, 5, 23, opts);
  const Seconds booked =
      mean.total_useful() + mean.total_io() + mean.total_lost() + mean.idle;
  EXPECT_NEAR(booked, mean.elapsed, 1e-6 * std::max(1.0, mean.elapsed));
}

TEST_P(AccountingInvariant, ElapsedIsMakespanOrHorizon) {
  // Drained queue: the campaign ends at the last completion.
  const WorkloadManager mgr(exa_failures(), exa_config());
  Rng r1(29);
  const CampaignStats drained = mgr.run(jobs(), GetParam().policy, r1);
  EXPECT_EQ(drained.completed_count(), jobs().size());
  EXPECT_DOUBLE_EQ(drained.elapsed, drained.makespan);
  EXPECT_LT(drained.elapsed, drained.horizon);

  // Horizon cut: the campaign (and the makespan of unfinished jobs) ends at
  // the horizon.
  ManagerConfig cut_cfg = exa_config();
  cut_cfg.horizon = hours(60.0);
  const WorkloadManager cut_mgr(exa_failures(), cut_cfg);
  Rng r2(29);
  const CampaignStats cut = cut_mgr.run(jobs(), GetParam().policy, r2);
  EXPECT_LT(cut.completed_count(), jobs().size());
  EXPECT_DOUBLE_EQ(cut.elapsed, hours(60.0));
  EXPECT_DOUBLE_EQ(cut.makespan, hours(60.0));
  const Seconds booked =
      cut.total_useful() + cut.total_io() + cut.total_lost() + cut.idle;
  EXPECT_NEAR(booked, cut.elapsed, 1e-6 * cut.elapsed);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyByWorkers, AccountingInvariant,
    ::testing::Values(InvariantCase{Policy::kBaselineAlternate, 1},
                      InvariantCase{Policy::kBaselineAlternate, 4},
                      InvariantCase{Policy::kShirazPairing, 1},
                      InvariantCase{Policy::kShirazPairing, 4}),
    invariant_name);

TEST(WorkloadManager, RunManyBitIdenticalAcrossWorkerCounts) {
  const WorkloadManager mgr(exa_failures(), exa_config());
  std::vector<BatchJobSpec> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back({"job" + std::to_string(i), hours(60.0 + 10.0 * i),
                    30.0 * (i + 1), hours(5.0) * i});
  }
  const CampaignRunOptions serial{1, nullptr};
  const CampaignRunOptions wide{4, nullptr};
  const CampaignStats a = mgr.run_many(jobs, Policy::kShirazPairing, 6, 31, serial);
  const CampaignStats b = mgr.run_many(jobs, Policy::kShirazPairing, 6, 31, wide);
  expect_bit_identical(a, b);

  const CampaignDistribution da =
      mgr.run_distribution(jobs, Policy::kShirazPairing, 6, 31, serial);
  const CampaignDistribution db =
      mgr.run_distribution(jobs, Policy::kShirazPairing, 6, 31, wide);
  expect_bit_identical(da, db);
}

TEST(WorkloadManager, RejectsBadConfigKnobs) {
  ManagerConfig negative_restart;
  negative_restart.restart_cost = -1.0;
  EXPECT_THROW(WorkloadManager(calm(), negative_restart), InvalidArgument);
  ManagerConfig negative_k;
  negative_k.fixed_pair_k = -1;
  EXPECT_THROW(WorkloadManager(calm(), negative_k), InvalidArgument);
  ManagerConfig zero_sim_max_k;
  zero_sim_max_k.sim_solve_max_k = 0;
  EXPECT_THROW(WorkloadManager(calm(), zero_sim_max_k), InvalidArgument);
}

TEST(WorkloadManager, SimSolveRunsPairsAndStaysWorkerInvariant) {
  // Sim-backed switch-point solves (flat replay kernel under the hood) must
  // produce a working pairing campaign whose outputs are bit-identical for
  // every worker count — the memoized solve is deterministic and draws from
  // its own seed, never from the campaign's failure stream.
  ManagerConfig cfg = exa_config();
  cfg.horizon = hours(2000.0);
  cfg.sim_solve_reps = 8;
  const WorkloadManager mgr(exa_failures(), cfg);
  const std::vector<BatchJobSpec> jobs = mixed_pair(hours(50.0));

  const CampaignStats serial =
      mgr.run_many(jobs, Policy::kShirazPairing, 4, 77, {.workers = 1});
  const CampaignStats wide =
      mgr.run_many(jobs, Policy::kShirazPairing, 4, 77, {.workers = 4});
  EXPECT_EQ(serial.total_useful(), wide.total_useful());
  EXPECT_EQ(serial.makespan, wide.makespan);
  EXPECT_EQ(serial.failures, wide.failures);
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(serial.jobs[i].useful, wide.jobs[i].useful) << "job " << i;
    EXPECT_EQ(serial.jobs[i].checkpoints, wide.jobs[i].checkpoints);
  }
  EXPECT_GT(serial.total_useful(), 0.0);
  // The analytical cache was bypassed: no signature ever hit it.
  EXPECT_EQ(mgr.solver_cache()->stats().lookups(), 0u);
}

TEST(WorkloadManager, FixedPairKTakesPrecedenceOverSimSolve) {
  ManagerConfig cfg = exa_config();
  cfg.horizon = hours(2000.0);
  cfg.sim_solve_reps = 8;
  cfg.fixed_pair_k = 7;
  ManagerConfig fixed_only = cfg;
  fixed_only.sim_solve_reps = 0;
  const WorkloadManager with_sim(exa_failures(), cfg);
  const WorkloadManager without_sim(exa_failures(), fixed_only);
  const std::vector<BatchJobSpec> jobs = mixed_pair(hours(50.0));
  const CampaignStats a = with_sim.run_many(jobs, Policy::kShirazPairing, 3, 11);
  const CampaignStats b =
      without_sim.run_many(jobs, Policy::kShirazPairing, 3, 11);
  EXPECT_EQ(a.total_useful(), b.total_useful());
  EXPECT_EQ(a.makespan, b.makespan);
}

}  // namespace
}  // namespace shiraz::sched
