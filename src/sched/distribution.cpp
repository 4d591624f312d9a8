#include "sched/distribution.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/error.h"
#include "common/statistics.h"

namespace shiraz::sched {

DistSummary summarize_samples(std::vector<double> samples) {
  DistSummary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  double sum = 0.0;
  for (const double x : samples) sum += x;
  out.mean = sum / static_cast<double>(samples.size());
  out.max = *std::max_element(samples.begin(), samples.end());
  constexpr double kQs[] = {0.50, 0.95, 0.99};
  double ps[std::size(kQs)];
  select_percentiles(samples, kQs, ps);
  out.p50 = ps[0];
  out.p95 = ps[1];
  out.p99 = ps[2];
  return out;
}

DistributionFold::DistributionFold(const std::vector<BatchJobSpec>& jobs,
                                   std::size_t expected_reps)
    : jobs_(jobs) {
  turnaround_.reserve(jobs.size() * expected_reps);
  slowdown_.reserve(jobs.size() * expected_reps);
  makespan_.reserve(expected_reps);
}

void DistributionFold::add(const CampaignStats& rep) {
  SHIRAZ_REQUIRE(rep.jobs.size() == jobs_.size(),
                 "mismatched job lists across reps");
  makespan_.push_back(rep.makespan);
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const BatchJobRecord& rec = rep.jobs[j];
    if (!rec.completed()) continue;
    turnaround_.push_back(rec.turnaround());
    slowdown_.push_back(rec.turnaround() / jobs_[j].work);
  }
  mean_.add(rep);
}

CampaignDistribution DistributionFold::finish() && {
  SHIRAZ_REQUIRE(!makespan_.empty(), "no repetitions to summarize");
  CampaignDistribution dist;
  dist.reps = makespan_.size();
  dist.job_count = jobs_.size();
  const std::size_t total = jobs_.size() * dist.reps;
  dist.completion_rate =
      total == 0 ? 0.0
                 : static_cast<double>(turnaround_.size()) /
                       static_cast<double>(total);
  dist.turnaround = summarize_samples(std::move(turnaround_));
  dist.slowdown = summarize_samples(std::move(slowdown_));
  dist.makespan = summarize_samples(std::move(makespan_));
  dist.mean = std::move(mean_).finish();
  return dist;
}

CampaignDistribution build_distribution(
    const std::vector<BatchJobSpec>& jobs,
    const std::vector<CampaignStats>& per_rep) {
  DistributionFold fold(jobs, per_rep.size());
  for (const CampaignStats& rep : per_rep) fold.add(rep);
  return std::move(fold).finish();
}

}  // namespace shiraz::sched
