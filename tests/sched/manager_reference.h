// A test-only oracle for sched::WorkloadManager::run: the per-segment
// campaign loop the stretch loop replaced, one scheduler round (pick the
// current job, check for a due failure, run one segment, activate()) per
// segment. It keeps the analytical-cache and fixed_pair_k solve routes and
// drops the rest (sim-backed solves, metrics, the per-run signature memo —
// cached solutions equal fresh solves), so for any config without
// sim_solve_reps it must reproduce run() bit for bit. Beside it: the
// scripted failure process the tie tests use, and the field-by-field
// bit-identity assertions the sched tests share.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "reliability/distribution.h"
#include "sched/distribution.h"
#include "sched/manager.h"

namespace shiraz::sched {

/// Deterministic failure process replaying a fixed gap list, then going
/// quiet — lets edge-case tests put a failure at an exact instant. Each clone
/// replays from where its source stood.
class ScriptedGaps final : public reliability::Distribution {
 public:
  explicit ScriptedGaps(std::vector<Seconds> gaps) : gaps_(std::move(gaps)) {}

  Seconds sample(Rng& /*rng*/) const override {
    if (next_ < gaps_.size()) return gaps_[next_++];
    return hours(1e9);
  }
  double cdf(Seconds /*t*/) const override { return 0.0; }
  double pdf(Seconds /*t*/) const override { return 0.0; }
  Seconds mean() const override { return hours(1e9); }
  Seconds quantile(double /*u*/) const override { return hours(1e9); }
  std::string name() const override { return "ScriptedGaps"; }
  std::unique_ptr<reliability::Distribution> clone() const override {
    auto copy = std::make_unique<ScriptedGaps>(gaps_);
    copy->next_ = next_;
    return copy;
  }

 private:
  std::vector<Seconds> gaps_;
  mutable std::size_t next_ = 0;
};

/// One campaign of `jobs` under `policy`, with the config and solver cache
/// of `mgr`, failures drawn from a fresh clone of `failure_dist` with `rng`.
/// Pass the distribution `mgr` was built from, unsampled (a stateful
/// scripted distribution must start where the manager's clone started).
CampaignStats reference_run(const WorkloadManager& mgr,
                            const reliability::Distribution& failure_dist,
                            const std::vector<BatchJobSpec>& jobs,
                            Policy policy, Rng& rng);

/// Asserts (gtest non-fatal failures) that every field of every record is
/// bit-equal: doubles compare by bit pattern, not by value or ULP distance.
void expect_bit_identical(const CampaignStats& want, const CampaignStats& got);
void expect_bit_identical(const CampaignDistribution& want,
                          const CampaignDistribution& got);

}  // namespace shiraz::sched
