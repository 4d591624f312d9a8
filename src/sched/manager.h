// The workload manager (paper Fig. 15): jobs arrive in a queue, the machine
// runs one job at a time with checkpoint/restart under injected failures, and
// a scheduling policy decides who occupies the machine.
//
// Two policies, matching the paper's comparison:
//  * kBaselineAlternate — the conventional fair scheduler: the two oldest
//    eligible jobs share the machine, switching at every failure;
//  * kShirazPairing — the same two jobs are run as a Shiraz pair: after each
//    failure the lighter-checkpoint job runs for the model's fair k
//    checkpoints, then the heavier one runs until the next failure. The
//    switch point is looked up again whenever the pair changes (a job
//    completes or a new one arrives into an idle slot). Each run() keeps its
//    own memo of (delta_LW, delta_HW) -> k in front of a shared
//    core::SolverCache keyed by the full model signature: the run's
//    thousands of pair changes touch the shared cache (and its lock) once
//    per distinct signature, and a 10k-job stream drawn from a small catalog
//    pays for each distinct solve once — across repetitions, policies, and
//    any other consumer (e.g. the `shirazctl serve` daemon) sharing the
//    cache.
//
// Which two jobs share the machine is the queue's pairing decision
// (ManagerConfig::slot_fill): FCFS reproduces the paper's random pairing —
// whoever is oldest gets the free slot — while kContrast picks the eligible
// job whose checkpoint cost contrasts most with the current occupant's, the
// workload-manager form of the paper's extreme pairing. Jobs with the same
// checkpoint cost contrast equally and the oldest of them wins, so a
// contrast fill compares only the oldest untaken job of each cost class
// that is due (a fleet catalog has a handful of classes, a bursty backlog
// a hundred jobs), never more entries than the backlog itself.
//
// What a campaign derives from the job list alone — validation, the
// submit-ordered queue, per-job OCI, and (contrast fill only) the cost-class
// index — is built once per run()/run_many()/run_distribution() call and
// read by all of that call's repetitions.
//
// Jobs are finite: a job completes when its accumulated *useful* work reaches
// its requirement; the final partial interval is not checkpointed. Completion
// latency (turnaround) is the per-job metric, system useful work per time the
// throughput metric — the two quantities the paper's evaluation tracks. The
// campaign ends when the queue drains or the horizon hits, and every run
// satisfies useful + io + lost + idle == elapsed == min(makespan, horizon).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "checkpoint/oci.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/analytical_model.h"
#include "core/solver_cache.h"
#include "reliability/distribution.h"
#include "sched/batch_job.h"
#include "sched/distribution.h"
#include "sched/stats.h"

namespace shiraz::obs {
class MetricsRegistry;
}  // namespace shiraz::obs

namespace shiraz::sched {

enum class Policy { kBaselineAlternate, kShirazPairing };

/// How a freed machine slot is filled from the eligible pending jobs.
enum class SlotFill {
  /// Oldest eligible job — the paper's random pairing (queue order decides).
  kFcfs,
  /// The eligible job whose checkpoint cost contrasts most (largest
  /// |log delta ratio|) with the job already on the machine — the paper's
  /// extreme pairing, applied at slot-fill time. Falls back to FCFS when the
  /// eligible backlog has a single job; ties break in queue order. A fill
  /// evaluates one candidate per cost class — the class's oldest untaken
  /// job, if it is due — since the rest of a class ties with it and loses.
  kContrast,
};

struct ManagerConfig {
  /// Hard stop for the campaign.
  Seconds horizon = hours(10'000.0);
  /// Nominal system MTBF used for OCI computation and switch-point solving
  /// (the failure distribution itself is passed to the constructor).
  Seconds nominal_mtbf = hours(5.0);
  double weibull_shape = 0.6;
  double epsilon = 0.45;
  checkpoint::OciFormula oci_formula = checkpoint::OciFormula::kYoung;
  /// Heavy-weight OCI stretch applied when pairing (1 = plain Shiraz;
  /// >= 2 = Shiraz+). Ignored by the baseline policy.
  unsigned hw_stretch = 1;
  /// Downtime charged (as lost time, to the job the failure hit) after each
  /// failure before the post-failure segment — the manager analogue of
  /// sim::EngineConfig::restart_cost. Default 0 keeps historical outputs
  /// bit-identical. Failures on an idle machine restart nothing.
  Seconds restart_cost = 0.0;
  /// Slot-fill discipline (the pairing strategy, see SlotFill).
  SlotFill slot_fill = SlotFill::kFcfs;
  /// Testing/ablation hook: > 0 forces every Shiraz pair to this switch
  /// point instead of solving the model. 0 (default) solves.
  int fixed_pair_k = 0;
  /// > 0 routes switch-point solves through Monte-Carlo simulation instead
  /// of the analytical model: each distinct (delta_LW, delta_HW) pair runs
  /// sim::find_fair_k_by_simulation with this many repetitions against the
  /// manager's *real* failure distribution — the flat replay kernel
  /// (sim/kernel.h) makes this cheap enough for in-campaign use. Solutions
  /// are memoized per signature (thread-safe, shared across run() calls and
  /// repetitions) and the solve draws from its own seed, so arming it never
  /// perturbs the campaign's failure streams; results stay bit-identical
  /// for every CampaignRunOptions::workers value. Precedence:
  /// fixed_pair_k > sim solve > analytical cache.
  std::size_t sim_solve_reps = 0;
  /// Failure-stream seed for sim-backed solves.
  std::uint64_t sim_solve_seed = 20180909;
  /// Upper bound of the sim-backed k scan (the analytical solver's default
  /// bound is far larger, but each sim candidate costs real replays; the
  /// paper's fair points sit well inside 64 at these signatures).
  int sim_solve_max_k = 64;
  /// When non-null, campaigns count into this registry (obs/metrics.h):
  /// jobs submitted/completed per run and the solve route each pair change
  /// took (fixed / sim-backed / analytical cache; counted per pair change,
  /// whether or not the run's memo answered it). Pure observation — no
  /// campaign decision reads a metric — so arming it never changes a
  /// reported number; counters are commutative u64 sums, so totals are
  /// CampaignRunOptions::workers-invariant.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Repetition-sharding knobs for run_many / run_distribution. Results are
/// bit-identical for every worker count: repetition r always draws from
/// Rng(seed).fork(r) and merges in repetition order (the PR 2 contract).
/// The calling thread folds each repetition as soon as it and every earlier
/// one have landed, so at most about workers + 2 repetitions are alive.
struct CampaignRunOptions {
  /// Worker threads (<= 1 runs the serial loop inline).
  std::size_t workers = 1;
  /// Borrowed pool; when null and workers > 1, a private pool is spawned.
  common::ThreadPool* pool = nullptr;
};

class WorkloadManager {
 public:
  /// With no explicit cache, the manager owns a private SolverCache — the
  /// historical behavior, except the memo now persists across run() calls
  /// and repetitions (bit-identical: cached solutions equal fresh solves).
  WorkloadManager(const reliability::Distribution& failure_dist,
                  const ManagerConfig& config);

  /// Shares `cache` with other consumers (other managers, the serve
  /// daemon): a signature any of them solved is a hit for all. The cache is
  /// thread-safe, so parallel repetitions populate it concurrently.
  WorkloadManager(const reliability::Distribution& failure_dist,
                  const ManagerConfig& config,
                  std::shared_ptr<const core::SolverCache> cache);

  /// The cache this manager consults (never null).
  const std::shared_ptr<const core::SolverCache>& solver_cache() const {
    return cache_;
  }

  /// The cache key this manager's config produces for a checkpoint-cost
  /// pair — the exact signature run() solves, exposed so callers (tests,
  /// the serve daemon) can prime or inspect the shared cache.
  core::SolverCacheKey cache_key(Seconds delta_lw, Seconds delta_hw) const;

  /// Runs one campaign over `jobs` (any submit-time order) under `policy`.
  CampaignStats run(const std::vector<BatchJobSpec>& jobs, Policy policy,
                    Rng& rng) const;

  /// Averages `reps` campaigns over independent failure streams (MeanFold).
  CampaignStats run_many(const std::vector<BatchJobSpec>& jobs, Policy policy,
                         std::size_t reps, std::uint64_t seed,
                         const CampaignRunOptions& options = {}) const;

  /// Like run_many, but additionally keeps the per-(job, rep) turnaround /
  /// slowdown and per-rep makespan samples and reports exact
  /// p50/p95/p99/max over them (DistributionFold; result.mean is the
  /// run_many view).
  CampaignDistribution run_distribution(const std::vector<BatchJobSpec>& jobs,
                                        Policy policy, std::size_t reps,
                                        std::uint64_t seed,
                                        const CampaignRunOptions& options = {}) const;

  const ManagerConfig& config() const { return config_; }

 private:
  struct SimSolveMemo;  // mutex + signature map, shared so managers stay copyable
  struct JobIndex;  // what a campaign derives from its job list alone

  /// One campaign over `jobs`, indexed by `index` (built from `jobs` with
  /// this manager's config); read-only in both, so repetitions share them.
  CampaignStats run(const std::vector<BatchJobSpec>& jobs,
                    const JobIndex& index, Policy policy, Rng& rng) const;

  /// Memoized sim-backed switch-point solve (sim_solve_reps > 0); nullopt
  /// means no beneficial switch point, i.e. alternate at every failure.
  std::optional<int> sim_solve_k(Seconds delta_lw, Seconds delta_hw) const;

  reliability::DistributionPtr failure_dist_;
  ManagerConfig config_;
  std::shared_ptr<const core::SolverCache> cache_;
  std::shared_ptr<SimSolveMemo> sim_memo_;
};

}  // namespace shiraz::sched
