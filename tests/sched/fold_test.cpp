// Repetition folding: run_many / run_distribution fold each repetition on the
// calling thread as it lands (rep order, at most ~workers + 2 alive). Their
// results must equal mean_of_reps / build_distribution over the same
// repetitions collected serially — every field, bit for bit — for any worker
// count. Repetition 0 stalls on its first failure draw, so with two or more
// workers later repetitions finish first and the fold has to hold them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/solver_cache.h"
#include "reliability/weibull.h"
#include "sched/arrivals.h"
#include "sched/distribution.h"
#include "sched/manager.h"

namespace shiraz::sched {
namespace {

constexpr std::size_t kReps = 7;
constexpr std::uint64_t kSeed = 61;

struct Cell {
  const char* label;
  Policy policy;
  SlotFill fill;
};
constexpr Cell kCells[] = {
    {"baseline", Policy::kBaselineAlternate, SlotFill::kFcfs},
    {"shiraz_extreme", Policy::kShirazPairing, SlotFill::kContrast},
};

/// Delegates to `inner` draw for draw (so campaigns keep their bits), except
/// that the repetition drawing from `stalled_seed` sleeps once, on its first
/// draw. Each clone — each manager — stalls once.
class StallOneRep final : public reliability::Distribution {
 public:
  StallOneRep(const reliability::Distribution& inner, std::uint64_t stalled_seed)
      : inner_(inner.clone()), stalled_seed_(stalled_seed) {}

  Seconds sample(Rng& rng) const override {
    if (rng.seed() == stalled_seed_ && !stalled_.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
    return inner_->sample(rng);
  }
  double cdf(Seconds t) const override { return inner_->cdf(t); }
  double pdf(Seconds t) const override { return inner_->pdf(t); }
  Seconds mean() const override { return inner_->mean(); }
  Seconds quantile(double u) const override { return inner_->quantile(u); }
  std::string name() const override { return "StallOneRep"; }
  std::unique_ptr<reliability::Distribution> clone() const override {
    return std::make_unique<StallOneRep>(*inner_, stalled_seed_);
  }

 private:
  std::unique_ptr<reliability::Distribution> inner_;
  std::uint64_t stalled_seed_;
  mutable std::atomic<bool> stalled_{false};
};

/// A small bursty fleet stream from the nine-class catalog.
std::vector<BatchJobSpec> fleet_stream() {
  ArrivalConfig acfg;
  acfg.regime = ArrivalRegime::kBursty;
  Rng rng(kSeed);
  return generate_arrivals(fleet_catalog(), acfg, 300, rng);
}

/// The cell's manager; with `stall_rep0`, repetition 0 of every campaign
/// the manager runs under kSeed starts 30 ms late (once per manager). All
/// managers share one solver cache, so each signature is solved once.
WorkloadManager manager_for(const Cell& cell, bool stall_rep0) {
  static const auto cache = std::make_shared<const core::SolverCache>();
  ManagerConfig cfg;
  cfg.horizon = hours(1.2 * 10.0 * 300.0 + 2000.0);
  cfg.nominal_mtbf = hours(5.0);
  cfg.slot_fill = cell.fill;
  const auto failures = reliability::Weibull::from_mtbf(0.6, hours(5.0));
  if (!stall_rep0) return WorkloadManager(failures, cfg, cache);
  return WorkloadManager(StallOneRep(failures, Rng(kSeed).fork(0).seed()), cfg,
                         cache);
}

std::vector<CampaignStats> serial_reps(const WorkloadManager& mgr,
                                       const std::vector<BatchJobSpec>& jobs,
                                       Policy policy) {
  std::vector<CampaignStats> per_rep;
  for (std::size_t r = 0; r < kReps; ++r) {
    Rng rng = Rng(kSeed).fork(r);
    per_rep.push_back(mgr.run(jobs, policy, rng));
  }
  return per_rep;
}

void expect_same_summary(const DistSummary& want, const DistSummary& got,
                         const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(want.count, got.count);
  EXPECT_EQ(want.mean, got.mean);
  EXPECT_EQ(want.p50, got.p50);
  EXPECT_EQ(want.p95, got.p95);
  EXPECT_EQ(want.p99, got.p99);
  EXPECT_EQ(want.max, got.max);
}

void expect_same_stats(const CampaignStats& want, const CampaignStats& got) {
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.horizon, got.horizon);
  EXPECT_EQ(want.elapsed, got.elapsed);
  EXPECT_EQ(want.failures, got.failures);
  EXPECT_EQ(want.idle, got.idle);
  EXPECT_EQ(want.reps, got.reps);
  ASSERT_EQ(want.jobs.size(), got.jobs.size());
  for (std::size_t j = 0; j < want.jobs.size(); ++j) {
    const BatchJobRecord& a = want.jobs[j];
    const BatchJobRecord& b = got.jobs[j];
    SCOPED_TRACE("job " + a.name);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.submit_time, b.submit_time);
    EXPECT_EQ(a.start_time, b.start_time);
    EXPECT_EQ(a.completion_time, b.completion_time);
    EXPECT_EQ(a.useful, b.useful);
    EXPECT_EQ(a.io, b.io);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_EQ(a.checkpoints, b.checkpoints);
    EXPECT_EQ(a.failures_hit, b.failures_hit);
    EXPECT_EQ(a.started_reps, b.started_reps);
    EXPECT_EQ(a.completed_reps, b.completed_reps);
  }
}

/// Worker counts 1-4 with private pools, plus 3 workers on a borrowed pool.
std::vector<CampaignRunOptions> run_options(common::ThreadPool& borrowed) {
  return {{1, nullptr}, {2, nullptr}, {3, nullptr}, {4, nullptr},
          {3, &borrowed}};
}

TEST(WorkloadManagerFold, RunDistributionMatchesSerialBuild) {
  const std::vector<BatchJobSpec> jobs = fleet_stream();
  common::ThreadPool pool(3);
  for (const Cell& cell : kCells) {
    const CampaignDistribution want = build_distribution(
        jobs, serial_reps(manager_for(cell, false), jobs, cell.policy));
    for (const CampaignRunOptions& opts : run_options(pool)) {
      SCOPED_TRACE(std::string(cell.label) + ", workers " +
                   std::to_string(opts.workers) +
                   (opts.pool != nullptr ? " (borrowed pool)" : ""));
      const WorkloadManager mgr = manager_for(cell, true);
      const CampaignDistribution got =
          mgr.run_distribution(jobs, cell.policy, kReps, kSeed, opts);
      EXPECT_EQ(want.reps, got.reps);
      EXPECT_EQ(want.job_count, got.job_count);
      EXPECT_EQ(want.completion_rate, got.completion_rate);
      expect_same_summary(want.turnaround, got.turnaround, "turnaround");
      expect_same_summary(want.slowdown, got.slowdown, "slowdown");
      expect_same_summary(want.makespan, got.makespan, "makespan");
      expect_same_stats(want.mean, got.mean);
    }
  }
}

TEST(WorkloadManagerFold, RunManyMatchesSerialMean) {
  const std::vector<BatchJobSpec> jobs = fleet_stream();
  common::ThreadPool pool(3);
  for (const Cell& cell : kCells) {
    const CampaignStats want =
        mean_of_reps(serial_reps(manager_for(cell, false), jobs, cell.policy));
    for (const CampaignRunOptions& opts : run_options(pool)) {
      SCOPED_TRACE(std::string(cell.label) + ", workers " +
                   std::to_string(opts.workers) +
                   (opts.pool != nullptr ? " (borrowed pool)" : ""));
      const WorkloadManager mgr = manager_for(cell, true);
      expect_same_stats(
          want, mgr.run_many(jobs, cell.policy, kReps, kSeed, opts));
    }
  }
}

/// A failure process whose every draw throws, so every repetition fails at
/// its first draw, in flight on a worker.
class ThrowingDraws final : public reliability::Distribution {
 public:
  Seconds sample(Rng& /*rng*/) const override {
    throw InvalidArgument("no failure draws here");
  }
  double cdf(Seconds /*t*/) const override { return 0.0; }
  double pdf(Seconds /*t*/) const override { return 0.0; }
  Seconds mean() const override { return hours(1.0); }
  Seconds quantile(double /*u*/) const override { return hours(1.0); }
  std::string name() const override { return "ThrowingDraws"; }
  std::unique_ptr<reliability::Distribution> clone() const override {
    return std::make_unique<ThrowingDraws>();
  }
};

TEST(WorkloadManagerFold, InvalidJobThrowsWithoutHanging) {
  // The job list is validated once per call, before any repetition runs.
  std::vector<BatchJobSpec> jobs = fleet_stream();
  jobs[jobs.size() / 2].work = 0.0;
  const WorkloadManager mgr = manager_for(kCells[1], false);
  const CampaignRunOptions two{2, nullptr};
  EXPECT_THROW(mgr.run_distribution(jobs, Policy::kShirazPairing, kReps, kSeed,
                                    two),
               InvalidArgument);
  EXPECT_THROW(mgr.run_many(jobs, Policy::kShirazPairing, kReps, kSeed, two),
               InvalidArgument);

  // Every repetition throws in flight: the fold must wait for the ones
  // running and rethrow instead of deadlocking or leaking a running task.
  const WorkloadManager throwing(ThrowingDraws(), mgr.config());
  const std::vector<BatchJobSpec> valid = fleet_stream();
  EXPECT_THROW(throwing.run_distribution(valid, Policy::kShirazPairing, kReps,
                                         kSeed, two),
               InvalidArgument);
  EXPECT_THROW(
      throwing.run_many(valid, Policy::kShirazPairing, kReps, kSeed, two),
      InvalidArgument);
}

}  // namespace
}  // namespace shiraz::sched
