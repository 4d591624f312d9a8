// Campaign-level statistics for workload-manager runs.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.h"
#include "sched/batch_job.h"

namespace shiraz::sched {

struct CampaignStats {
  std::vector<BatchJobRecord> jobs;
  /// Completion time of the last finished job (horizon if any job is cut off).
  Seconds makespan = 0.0;
  Seconds horizon = 0.0;
  /// Simulated span: the campaign ends when the queue drains or the horizon
  /// hits, so elapsed == min(makespan, horizon) for a single run (mean of
  /// that across reps in the averaged view). The accounting invariant is
  /// total_useful() + total_io() + total_lost() + idle == elapsed.
  Seconds elapsed = 0.0;
  double failures = 0.0;
  Seconds idle = 0.0;
  /// Repetitions averaged into this view (1 for a single run).
  std::size_t reps = 1;

  /// Jobs that completed in at least one repetition.
  std::size_t completed_count() const;
  /// Fraction of (job, repetition) samples that completed.
  double completion_rate() const;
  Seconds total_useful() const;
  Seconds total_io() const;
  Seconds total_lost() const;
  /// Mean turnaround across jobs that completed at least once (each job
  /// contributing its mean over the reps it completed in); 0 when none did.
  Seconds mean_turnaround() const;
  Seconds max_turnaround() const;

  const BatchJobRecord& job(const std::string& name) const;
};

/// The rep-order mean as a fold: add() sums one repetition after another in
/// the order given, finish() divides. Time fields and counts average over all
/// reps; start/completion times average over the reps where the job
/// started/completed (see BatchJobRecord). A caller that folds repetitions
/// as they land keeps one accumulator alive instead of every repetition.
class MeanFold {
 public:
  /// Folds the next repetition. Throws when its job list differs in size
  /// from the first repetition's.
  void add(const CampaignStats& rep);
  /// The mean of every repetition added; throws when none was.
  CampaignStats finish() &&;

 private:
  CampaignStats sum_;
  std::vector<Seconds> start_sum_;
  std::vector<Seconds> completion_sum_;
  std::size_t reps_ = 0;
};

/// MeanFold over `per_rep` in vector order. Throws on empty input or
/// mismatched job lists.
CampaignStats mean_of_reps(const std::vector<CampaignStats>& per_rep);

}  // namespace shiraz::sched
