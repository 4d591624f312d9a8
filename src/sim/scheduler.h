// Scheduling policies for the discrete-event simulator.
//
// The engine consults the scheduler at three kinds of points — right after a
// failure (gap start), right after a completed checkpoint, and when a failure
// alarm fires (only when the engine runs with an AlarmSource; see alarm.h).
// The first two are sufficient for every policy in the paper: the baseline
// alternates at failures, Shiraz switches at the light-weight app's k-th
// checkpoint, the naive strategy switches at a wall-clock threshold (rounded
// up to the next checkpoint boundary), and the multi-application scheme
// rotates pairs at failures. The alarm hook powers the prediction-aware
// policies in src/predict, which respond with proactive checkpoints. Policies
// whose gaps depend only on the failure count also describe themselves as a
// per-gap phase plan (flat_plan), which the flat replay kernel runs without
// calling the hooks.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"

namespace shiraz::sim {

/// Read-only view of the engine state offered to scheduling decisions.
struct SchedContext {
  Seconds now = 0.0;        ///< absolute simulated time
  Seconds gap_start = 0.0;  ///< time of the most recent failure (0 at start)
  std::size_t num_apps = 0;
  /// Index of the app whose checkpoint just completed (on_checkpoint only).
  std::size_t current = 0;
  /// Per-app checkpoints completed since gap_start.
  const std::vector<std::size_t>* checkpoints_this_gap = nullptr;
  std::size_t failures_so_far = 0;
  /// Length of the inter-failure gap that just ended (only meaningful inside
  /// on_gap_start after a failure; 0 at campaign start). Lets adaptive
  /// policies learn the failure process online.
  Seconds last_gap_length = 0.0;
  /// Claimed time-to-failure of the alarm being delivered (on_alarm only).
  Seconds alarm_lead = 0.0;
  /// Checkpoint cost of app `current` (on_alarm only), so prediction-aware
  /// policies can tell whether the lead time covers a proactive write.
  Seconds current_delta = 0.0;

  Seconds elapsed_in_gap() const { return now - gap_start; }
};

/// What to run next.
struct Decision {
  /// App index to run; empty = idle until the next failure.
  std::optional<std::size_t> app;
  /// Earliest elapsed-time-since-gap-start at which the app may start
  /// (used by the validation's delayed-start case); 0 = immediately.
  Seconds not_before_elapsed = 0.0;

  static Decision run(std::size_t index) { return Decision{index, 0.0}; }
  static Decision run_after(std::size_t index, Seconds elapsed) {
    return Decision{index, elapsed};
  }
  static Decision idle() { return Decision{std::nullopt, 0.0}; }
};

/// Response to a failure alarm (Scheduler::on_alarm). A proactive checkpoint
/// seals the running app's in-flight compute with an unscheduled write of its
/// checkpoint cost; `checkpoint_delay` lets the policy aim the write to
/// complete right at the predicted failure (start = alarm time + delay). The
/// app keeps computing until the write starts and resumes its regular
/// schedule afterwards. Proactive checkpoints do not count toward
/// checkpoints_this_gap, so Shiraz's k-switch logic is unaffected.
struct AlarmAction {
  bool take_checkpoint = false;
  /// Seconds after the alarm at which the proactive write starts.
  Seconds checkpoint_delay = 0.0;

  static AlarmAction ignore() { return {}; }
  static AlarmAction checkpoint_after(Seconds delay) { return {true, delay}; }
};

/// One phase of a gap's plan (see PhasePlan): run `app` until it completes
/// `budget` checkpoints.
struct PlanPhase {
  /// Budget of a phase that runs until the gap ends.
  static constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

  std::size_t app = 0;
  std::size_t budget = kUnbounded;
};

/// A gap-local policy flattened for the flat replay kernel (sim/kernel.h):
/// which apps run in a gap, in what order and for how many checkpoints
/// depends only on the failure count at gap start, cycling with period
/// size(). Entry `f % size()` governs the gap opened by failure number f
/// (the campaign opens with f == 0); its phases run in order, and the last
/// one's budget is PlanPhase::kUnbounded.
using PhasePlan = std::vector<std::vector<PlanPhase>>;

/// A scheduling policy. The engine calls reset() at the start of every run,
/// so stateful policies (e.g. the adaptive online-estimating Shiraz variant)
/// can be reused across Monte-Carlo repetitions; the policies in this header
/// are stateless and derive all decisions from the SchedContext.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Called once per simulation run before any decision; clears run state.
  /// Const because engines hold policies by const reference across runs;
  /// stateful policies keep their run state in mutable members.
  virtual void reset() const {}

  /// Called at campaign start and immediately after every failure.
  virtual Decision on_gap_start(const SchedContext& ctx) const = 0;

  /// Called when app `ctx.current` completes a checkpoint.
  virtual Decision on_checkpoint(const SchedContext& ctx) const = 0;

  /// Called when a failure alarm fires while app `ctx.current` runs (only
  /// when the engine was given an AlarmSource; ctx.alarm_lead carries the
  /// claimed time-to-failure and ctx.current_delta the running app's
  /// checkpoint cost). Default: ignore the alarm.
  virtual AlarmAction on_alarm(const SchedContext&) const {
    return AlarmAction::ignore();
  }

  /// Copy hook for parallel Monte-Carlo dispatch: policies with mutable run
  /// state MUST override this to return a private copy, so each concurrent
  /// repetition mutates its own instance. Stateless policies (everything in
  /// this header) return nullptr, meaning "share me freely across threads".
  virtual std::unique_ptr<Scheduler> clone() const { return nullptr; }

  /// Writes the policy's per-gap phase plan for `num_apps` (>= 1) apps into
  /// `*out` and returns nullptr, or returns a static reason why it has none;
  /// the engine then runs the policy on the event loop, which raises the
  /// policy's own error for an app count it rejects. Contract: an override
  /// makes exactly the decisions its on_gap_start/on_checkpoint hooks make
  /// (tests/sim/kernel_test.cpp holds the kernel to the hooks bit for bit),
  /// names only apps below `num_apps`, and its class stays `final` — a
  /// subclass could inherit the plan yet override the hooks.
  virtual const char* flat_plan(std::size_t /*num_apps*/, PhasePlan* /*out*/) const {
    return "scheduler has no flat phase-plan form";
  }

  virtual std::string name() const = 0;
};

/// Baseline (paper Fig. 4): rotate through all apps, switching at every
/// failure; between failures the chosen app keeps running.
class AlternateAtFailure final : public Scheduler {
 public:
  Decision on_gap_start(const SchedContext& ctx) const override;
  Decision on_checkpoint(const SchedContext& ctx) const override;
  const char* flat_plan(std::size_t num_apps, PhasePlan* out) const override;
  std::string name() const override { return "AlternateAtFailure"; }
};

/// Shiraz for one pair (paper Fig. 6): app 0 (light-weight) runs from each
/// failure until it completes k checkpoints, then app 1 (heavy-weight) runs
/// until the next failure. k == 0 degenerates to heavy-weight-only.
class ShirazPairScheduler final : public Scheduler {
 public:
  explicit ShirazPairScheduler(int k);

  int k() const { return k_; }
  Decision on_gap_start(const SchedContext& ctx) const override;
  Decision on_checkpoint(const SchedContext& ctx) const override;
  const char* flat_plan(std::size_t num_apps, PhasePlan* out) const override;
  std::string name() const override;

 private:
  int k_;
};

/// Validation case 1 (paper Section 4, "first application"): app 0 runs from
/// each failure until it completes `count` checkpoints, then the machine is
/// idle (whatever runs afterwards is irrelevant to the measured app).
class FirstAppScheduler final : public Scheduler {
 public:
  explicit FirstAppScheduler(std::size_t count);

  Decision on_gap_start(const SchedContext& ctx) const override;
  Decision on_checkpoint(const SchedContext& ctx) const override;
  std::string name() const override { return "FirstApp"; }

 private:
  std::size_t count_;
};

/// Validation case 2 ("second application"): app 0 is switched in `t_start`
/// seconds after each failure and runs until the next failure.
class SecondAppScheduler final : public Scheduler {
 public:
  explicit SecondAppScheduler(Seconds t_start);

  Decision on_gap_start(const SchedContext& ctx) const override;
  Decision on_checkpoint(const SchedContext& ctx) const override;
  std::string name() const override { return "SecondApp"; }

 private:
  Seconds t_start_;
};

/// The naive strategy Section 5 debunks: switch light -> heavy at a fixed
/// wall-clock threshold after each failure (e.g. MTBF/2), at the first
/// checkpoint boundary past the threshold.
class NaiveTimeSwitchScheduler final : public Scheduler {
 public:
  explicit NaiveTimeSwitchScheduler(Seconds threshold);

  Decision on_gap_start(const SchedContext& ctx) const override;
  Decision on_checkpoint(const SchedContext& ctx) const override;
  std::string name() const override;

 private:
  Seconds threshold_;
};

/// N-application within-gap chain (extension; see core/multi_switch.h): apps
/// are ordered by ascending checkpoint cost; after each failure app 0 runs
/// for ks[0] checkpoints, then app 1 for ks[1], ..., and the last app runs
/// until the next failure. A zero count skips that app's turn in the gap.
class MultiSwitchScheduler final : public Scheduler {
 public:
  /// ks has one entry per app except the last (which always runs to failure).
  explicit MultiSwitchScheduler(std::vector<int> ks);

  Decision on_gap_start(const SchedContext& ctx) const override;
  Decision on_checkpoint(const SchedContext& ctx) const override;
  const char* flat_plan(std::size_t num_apps, PhasePlan* out) const override;
  std::string name() const override { return "MultiSwitch"; }

 private:
  /// First app at-or-after `from` whose turn is non-empty (the last app's
  /// turn is always non-empty).
  std::size_t next_runnable(std::size_t from) const;

  std::vector<int> ks_;
};

/// Multi-application Shiraz (paper Section 5): the app list is organized as
/// consecutive pairs (lw0, hw0, lw1, hw1, ...); one pair runs between two
/// failures under Shiraz with its own k, and pairs rotate at every failure.
/// Pairs whose k is absent (no beneficial switch) alternate fairly instead:
/// their light and heavy member take turns leading across rotations.
class PairRotationScheduler final : public Scheduler {
 public:
  /// ks[i] is the switch point for pair i (apps 2i and 2i+1); std::nullopt
  /// marks a pair that falls back to baseline alternation.
  explicit PairRotationScheduler(std::vector<std::optional<int>> ks);

  Decision on_gap_start(const SchedContext& ctx) const override;
  Decision on_checkpoint(const SchedContext& ctx) const override;
  const char* flat_plan(std::size_t num_apps, PhasePlan* out) const override;
  std::string name() const override { return "PairRotation"; }

 private:
  std::vector<std::optional<int>> ks_;
};

}  // namespace shiraz::sim
