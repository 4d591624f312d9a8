#include "sim/scheduler.h"

#include <sstream>
#include <utility>

#include "common/error.h"

namespace shiraz::sim {

Decision AlternateAtFailure::on_gap_start(const SchedContext& ctx) const {
  SHIRAZ_REQUIRE(ctx.num_apps >= 1, "no apps to schedule");
  return Decision::run(ctx.failures_so_far % ctx.num_apps);
}

Decision AlternateAtFailure::on_checkpoint(const SchedContext& ctx) const {
  return Decision::run(ctx.current);
}

const char* AlternateAtFailure::flat_plan(std::size_t num_apps, PhasePlan* out) const {
  // Gap f runs app f % n until the next failure.
  out->resize(num_apps);
  for (std::size_t i = 0; i < num_apps; ++i) {
    (*out)[i] = {PlanPhase{i, PlanPhase::kUnbounded}};
  }
  return nullptr;
}

ShirazPairScheduler::ShirazPairScheduler(int k) : k_(k) {
  SHIRAZ_REQUIRE(k >= 0, "switch point must be non-negative");
}

Decision ShirazPairScheduler::on_gap_start(const SchedContext& ctx) const {
  SHIRAZ_REQUIRE(ctx.num_apps == 2, "ShirazPairScheduler schedules exactly two apps");
  return Decision::run(k_ == 0 ? 1 : 0);
}

Decision ShirazPairScheduler::on_checkpoint(const SchedContext& ctx) const {
  if (ctx.current == 0 &&
      (*ctx.checkpoints_this_gap)[0] >= static_cast<std::size_t>(k_)) {
    return Decision::run(1);
  }
  return Decision::run(ctx.current);
}

const char* ShirazPairScheduler::flat_plan(std::size_t num_apps, PhasePlan* out) const {
  if (num_apps != 2) return "ShirazPairScheduler needs exactly two apps";
  out->resize(1);
  if (k_ == 0) {
    (*out)[0] = {PlanPhase{1, PlanPhase::kUnbounded}};
  } else {
    (*out)[0] = {PlanPhase{0, static_cast<std::size_t>(k_)},
                 PlanPhase{1, PlanPhase::kUnbounded}};
  }
  return nullptr;
}

std::string ShirazPairScheduler::name() const {
  std::ostringstream os;
  os << "ShirazPair(k=" << k_ << ")";
  return os.str();
}

FirstAppScheduler::FirstAppScheduler(std::size_t count) : count_(count) {}

Decision FirstAppScheduler::on_gap_start(const SchedContext&) const {
  return count_ == 0 ? Decision::idle() : Decision::run(0);
}

Decision FirstAppScheduler::on_checkpoint(const SchedContext& ctx) const {
  if ((*ctx.checkpoints_this_gap)[0] >= count_) return Decision::idle();
  return Decision::run(ctx.current);
}

SecondAppScheduler::SecondAppScheduler(Seconds t_start) : t_start_(t_start) {
  SHIRAZ_REQUIRE(t_start >= 0.0, "start offset must be non-negative");
}

Decision SecondAppScheduler::on_gap_start(const SchedContext&) const {
  return Decision::run_after(0, t_start_);
}

Decision SecondAppScheduler::on_checkpoint(const SchedContext& ctx) const {
  return Decision::run(ctx.current);
}

NaiveTimeSwitchScheduler::NaiveTimeSwitchScheduler(Seconds threshold)
    : threshold_(threshold) {
  SHIRAZ_REQUIRE(threshold >= 0.0, "threshold must be non-negative");
}

Decision NaiveTimeSwitchScheduler::on_gap_start(const SchedContext& ctx) const {
  SHIRAZ_REQUIRE(ctx.num_apps == 2, "NaiveTimeSwitch schedules exactly two apps");
  return Decision::run(threshold_ == 0.0 ? 1 : 0);
}

Decision NaiveTimeSwitchScheduler::on_checkpoint(const SchedContext& ctx) const {
  if (ctx.current == 0 && ctx.elapsed_in_gap() >= threshold_) return Decision::run(1);
  return Decision::run(ctx.current);
}

std::string NaiveTimeSwitchScheduler::name() const {
  std::ostringstream os;
  os << "NaiveTimeSwitch(t=" << threshold_ << "s)";
  return os.str();
}

MultiSwitchScheduler::MultiSwitchScheduler(std::vector<int> ks) : ks_(std::move(ks)) {
  SHIRAZ_REQUIRE(!ks_.empty(), "need at least two apps (one switch count)");
  for (const int k : ks_) SHIRAZ_REQUIRE(k >= 0, "switch counts must be non-negative");
}

std::size_t MultiSwitchScheduler::next_runnable(std::size_t from) const {
  std::size_t i = from;
  while (i < ks_.size() && ks_[i] == 0) ++i;
  return i;  // ks_.size() is the last app, which always runs
}

Decision MultiSwitchScheduler::on_gap_start(const SchedContext& ctx) const {
  SHIRAZ_REQUIRE(ctx.num_apps == ks_.size() + 1,
                 "app count must be one more than the switch-count vector");
  return Decision::run(next_runnable(0));
}

Decision MultiSwitchScheduler::on_checkpoint(const SchedContext& ctx) const {
  const std::size_t i = ctx.current;
  if (i < ks_.size() &&
      (*ctx.checkpoints_this_gap)[i] >= static_cast<std::size_t>(ks_[i])) {
    return Decision::run(next_runnable(i + 1));
  }
  return Decision::run(i);
}

const char* MultiSwitchScheduler::flat_plan(std::size_t num_apps, PhasePlan* out) const {
  if (num_apps != ks_.size() + 1) {
    return "MultiSwitchScheduler app count must be one more than its ks";
  }
  // Zero counts skip that app's turn (next_runnable); the last app always
  // runs to the gap's end.
  std::vector<PlanPhase> plan;
  for (std::size_t i = 0; i < ks_.size(); ++i) {
    if (ks_[i] > 0) plan.push_back({i, static_cast<std::size_t>(ks_[i])});
  }
  plan.push_back({ks_.size(), PlanPhase::kUnbounded});
  *out = {std::move(plan)};
  return nullptr;
}

PairRotationScheduler::PairRotationScheduler(std::vector<std::optional<int>> ks)
    : ks_(std::move(ks)) {
  SHIRAZ_REQUIRE(!ks_.empty(), "need at least one pair");
  for (const auto& k : ks_) {
    SHIRAZ_REQUIRE(!k || *k >= 0, "switch points must be non-negative");
  }
}

Decision PairRotationScheduler::on_gap_start(const SchedContext& ctx) const {
  SHIRAZ_REQUIRE(ctx.num_apps == 2 * ks_.size(), "app count must be 2 * pairs");
  const std::size_t rotation = ctx.failures_so_far;
  const std::size_t pair = rotation % ks_.size();
  const std::size_t lw = 2 * pair;
  const std::size_t hw = lw + 1;
  const auto& k = ks_[pair];
  if (!k) {
    // Baseline alternation within the pair: lead alternates across rotations.
    return Decision::run((rotation / ks_.size()) % 2 == 0 ? lw : hw);
  }
  return Decision::run(*k == 0 ? hw : lw);
}

Decision PairRotationScheduler::on_checkpoint(const SchedContext& ctx) const {
  const std::size_t pair = ctx.current / 2;
  const std::size_t lw = 2 * pair;
  const std::size_t hw = lw + 1;
  const auto& k = ks_[pair];
  if (k && ctx.current == lw &&
      (*ctx.checkpoints_this_gap)[lw] >= static_cast<std::size_t>(*k)) {
    return Decision::run(hw);
  }
  return Decision::run(ctx.current);
}

const char* PairRotationScheduler::flat_plan(std::size_t num_apps, PhasePlan* out) const {
  if (num_apps != 2 * ks_.size()) {
    return "PairRotationScheduler app count must be 2 * pairs";
  }
  // Rotation r picks pair r % P; pairs without a k alternate their lead
  // across rotations via (r / P) % 2, so the whole cycle has period 2P.
  const std::size_t pairs = ks_.size();
  out->resize(2 * pairs);
  for (std::size_t r = 0; r < 2 * pairs; ++r) {
    const std::size_t pair = r % pairs;
    const std::size_t lw = 2 * pair;
    const std::size_t hw = lw + 1;
    const auto& k = ks_[pair];
    std::vector<PlanPhase>& plan = (*out)[r];
    if (!k) {
      plan = {PlanPhase{(r / pairs) % 2 == 0 ? lw : hw, PlanPhase::kUnbounded}};
    } else if (*k == 0) {
      plan = {PlanPhase{hw, PlanPhase::kUnbounded}};
    } else {
      plan = {PlanPhase{lw, static_cast<std::size_t>(*k)},
              PlanPhase{hw, PlanPhase::kUnbounded}};
    }
  }
  return nullptr;
}

}  // namespace shiraz::sim
