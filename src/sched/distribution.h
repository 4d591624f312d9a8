// Distributional campaign statistics: at fleet scale the interesting numbers
// are tails, not means. CampaignDistribution keeps the exact per-(job, rep)
// turnaround and slowdown samples and the per-rep makespan samples, and
// reports p50/p95/p99/max over them — the SLO view of a campaign — plus the
// completion rate the mean-of-means accounting used to silently drop.
#pragma once

#include <cstddef>
#include <vector>

#include "sched/batch_job.h"
#include "sched/stats.h"

namespace shiraz::sched {

/// Exact order statistics of one sample set. Percentiles are
/// linear-interpolated (common/statistics.h); all zero when count == 0.
struct DistSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Summarizes `samples` (consumed; its order statistics are selected in
/// place, see select_percentiles).
DistSummary summarize_samples(std::vector<double> samples);

struct CampaignDistribution {
  std::size_t reps = 0;
  std::size_t job_count = 0;
  /// Completed (job, repetition) samples over job_count * reps.
  double completion_rate = 0.0;
  /// Seconds, one sample per completed (job, repetition) pair.
  DistSummary turnaround;
  /// Turnaround / the job's work requirement (dimensionless, >= 1 plus
  /// checkpoint overhead), same sample set as `turnaround`.
  DistSummary slowdown;
  /// Seconds, one sample per repetition.
  DistSummary makespan;
  /// Rep-order mean of the same repetitions (mean_of_reps).
  CampaignStats mean;
};

/// The distribution as a fold over repetitions: add() appends one
/// repetition's turnaround/slowdown samples in job order and its makespan
/// sample, and adds it to the rep-order mean (MeanFold); finish() summarizes.
/// Samples are therefore collected in (rep, job) order, so the result is
/// identical for any worker count as long as repetitions are added in
/// repetition order.
class DistributionFold {
 public:
  /// `jobs` must outlive the fold; `expected_reps` only sizes the buffers.
  DistributionFold(const std::vector<BatchJobSpec>& jobs,
                   std::size_t expected_reps);
  /// Folds the next repetition; throws when its job list does not match.
  void add(const CampaignStats& rep);
  /// The distribution of every repetition added; throws when none was.
  CampaignDistribution finish() &&;

 private:
  const std::vector<BatchJobSpec>& jobs_;
  std::vector<double> turnaround_;
  std::vector<double> slowdown_;
  std::vector<double> makespan_;
  MeanFold mean_;
};

/// DistributionFold over `per_rep` in vector order.
CampaignDistribution build_distribution(const std::vector<BatchJobSpec>& jobs,
                                        const std::vector<CampaignStats>& per_rep);

}  // namespace shiraz::sched
