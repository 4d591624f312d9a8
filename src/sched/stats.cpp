#include "sched/stats.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace shiraz::sched {

std::size_t CampaignStats::completed_count() const {
  return static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(),
                    [](const BatchJobRecord& j) { return j.completed(); }));
}

double CampaignStats::completion_rate() const {
  if (jobs.empty() || reps == 0) return 0.0;
  std::size_t completed = 0;
  for (const auto& j : jobs) completed += j.completed_reps;
  return static_cast<double>(completed) /
         static_cast<double>(jobs.size() * reps);
}

Seconds CampaignStats::total_useful() const {
  Seconds t = 0.0;
  for (const auto& j : jobs) t += j.useful;
  return t;
}

Seconds CampaignStats::total_io() const {
  Seconds t = 0.0;
  for (const auto& j : jobs) t += j.io;
  return t;
}

Seconds CampaignStats::total_lost() const {
  Seconds t = 0.0;
  for (const auto& j : jobs) t += j.lost;
  return t;
}

Seconds CampaignStats::mean_turnaround() const {
  Seconds sum = 0.0;
  std::size_t n = 0;
  for (const auto& j : jobs) {
    if (j.completed()) {
      sum += j.turnaround();
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

Seconds CampaignStats::max_turnaround() const {
  Seconds best = 0.0;
  for (const auto& j : jobs) {
    if (j.completed()) best = std::max(best, j.turnaround());
  }
  return best;
}

const BatchJobRecord& CampaignStats::job(const std::string& name) const {
  for (const auto& j : jobs) {
    if (j.name == name) return j;
  }
  throw InvalidArgument("no job named " + name + " in campaign stats");
}

void MeanFold::add(const CampaignStats& rep) {
  const std::size_t nj = rep.jobs.size();
  if (reps_ == 0) {
    sum_.horizon = rep.horizon;
    sum_.jobs.resize(nj);
    for (std::size_t j = 0; j < nj; ++j) {
      sum_.jobs[j].name = rep.jobs[j].name;
      sum_.jobs[j].submit_time = rep.jobs[j].submit_time;
    }
    start_sum_.assign(nj, 0.0);
    completion_sum_.assign(nj, 0.0);
  }
  SHIRAZ_REQUIRE(nj == sum_.jobs.size(), "mismatched job lists across reps");
  for (std::size_t j = 0; j < nj; ++j) {
    BatchJobRecord& acc = sum_.jobs[j];
    const BatchJobRecord& one = rep.jobs[j];
    acc.useful += one.useful;
    acc.io += one.io;
    acc.lost += one.lost;
    acc.checkpoints += one.checkpoints;
    acc.failures_hit += one.failures_hit;
    if (one.started()) {
      start_sum_[j] += one.start_time;
      ++acc.started_reps;
    }
    if (one.completed()) {
      completion_sum_[j] += one.completion_time;
      ++acc.completed_reps;
    }
  }
  sum_.failures += rep.failures;
  sum_.idle += rep.idle;
  sum_.makespan += rep.makespan;
  sum_.elapsed += rep.elapsed;
  ++reps_;
}

CampaignStats MeanFold::finish() && {
  SHIRAZ_REQUIRE(reps_ > 0, "no repetitions to average");
  const double n = static_cast<double>(reps_);
  CampaignStats out = std::move(sum_);
  out.reps = reps_;
  for (std::size_t j = 0; j < out.jobs.size(); ++j) {
    BatchJobRecord& acc = out.jobs[j];
    acc.useful /= n;
    acc.io /= n;
    acc.lost /= n;
    acc.checkpoints /= n;
    acc.failures_hit /= n;
    acc.start_time = acc.started_reps == 0
                         ? -1.0
                         : start_sum_[j] / static_cast<double>(acc.started_reps);
    acc.completion_time =
        acc.completed_reps == 0
            ? -1.0
            : completion_sum_[j] / static_cast<double>(acc.completed_reps);
  }
  out.failures /= n;
  out.idle /= n;
  out.makespan /= n;
  out.elapsed /= n;
  return out;
}

CampaignStats mean_of_reps(const std::vector<CampaignStats>& per_rep) {
  MeanFold fold;
  for (const CampaignStats& rep : per_rep) fold.add(rep);
  return std::move(fold).finish();
}

}  // namespace shiraz::sched
