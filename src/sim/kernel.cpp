#include "sim/kernel.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "obs/event.h"
#include "sim/trace.h"

namespace shiraz::sim {

namespace {

/// Hands one event to the sink — the event loop's `emit`, field for field
/// (Event::rep stays 0; campaign merges stamp it).
void emit(obs::EventSink* sink, obs::EventKind kind, Seconds time,
          Seconds duration, std::size_t app, Seconds value = 0.0) {
  obs::Event e;
  e.kind = kind;
  e.time = time;
  e.duration = duration;
  e.app = static_cast<std::int32_t>(app);
  e.value = value;
  sink->on_event(e);
}

/// The kernel proper: one repetition over a prebuilt phase plan. kNarrate
/// emits the event loop's stream into `sink` at the points where the loop
/// emits it, from the same doubles; without it no emit code is compiled in.
template <bool kNarrate>
SimResult run_flat(const EngineConfig& config, const std::vector<SimJob>& jobs,
                   const Scheduler& scheduler, const PhasePlan& flat,
                   const FailureTrace& trace,
                   [[maybe_unused]] obs::EventSink* sink) {
  SHIRAZ_REQUIRE(trace.horizon() >= config.t_total,
                 "trace horizon does not cover the engine horizon");
  for (const SimJob& job : jobs) {
    SHIRAZ_REQUIRE(job.delta > 0.0, "job checkpoint cost must be positive");
    SHIRAZ_REQUIRE(*job.schedule->period() > 0.0,
                   "schedule produced a non-positive interval");
  }
  scheduler.reset();  // the engine contract; eligible policies are stateless

  const std::size_t cycle = flat.size();

  // Per-app constants, hoisted once (structure-of-arrays view of the jobs).
  const std::size_t napps = jobs.size();
  std::vector<Seconds> taus(napps);
  std::vector<Seconds> deltas(napps);
  for (std::size_t i = 0; i < napps; ++i) {
    taus[i] = *jobs[i].schedule->period();
    deltas[i] = jobs[i].delta;
  }

  SimResult res;
  res.wall = config.t_total;
  res.apps.resize(napps);
  for (std::size_t i = 0; i < napps; ++i) res.apps[i].name = jobs[i].name;

  const Seconds horizon = config.t_total;
  // Raw prefix-sum array: the FailureTrace invariant (every entry before the
  // last is < horizon, the last is >= horizon) guarantees the cursor below
  // never advances past the end — a new entry is read only after a failure
  // strictly before the horizon.
  const Seconds* fail_times = trace.fail_times().data();
  std::size_t cursor = 0;
  Seconds now = 0.0;
  Seconds next_fail = fail_times[cursor++];

  // Tracks res.failures % cycle without the per-gap division — failures
  // advance by exactly one per gap.
  std::size_t plan_idx = 0;
  for (;;) {
    const std::vector<PlanPhase>& plan = flat[plan_idx];
    std::size_t phase = 0;
    std::size_t ai = plan[0].app;
    Seconds tau = taus[ai];
    Seconds delta = deltas[ai];
    AppMetrics* am = &res.apps[ai];
    std::size_t done_in_phase = 0;
    for (;;) {
      // The engine's exact segment resolution: compute [now, write_start),
      // checkpoint write [write_start, seg_end), three-way compare.
      const Seconds write_start = now + tau;
      const Seconds seg_end = write_start + delta;
      if (horizon <= seg_end && horizon <= next_fail) {
        res.truncated += horizon - now;
        if constexpr (kNarrate) {
          if (horizon > write_start) {
            emit(sink, obs::EventKind::kCheckpointBegin, write_start, 0.0, ai);
          }
          emit(sink, obs::EventKind::kHorizonTruncated, now, horizon - now, ai);
        }
        return res;  // `now = horizon` in the engine; nothing reads it after
      }
      if (next_fail < seg_end) {
        am->lost += next_fail - now;
        if constexpr (kNarrate) {
          if (next_fail > write_start) {
            emit(sink, obs::EventKind::kCheckpointBegin, write_start, 0.0, ai);
          }
          emit(sink, obs::EventKind::kSegmentWiped, now, next_fail - now, ai);
          emit(sink, obs::EventKind::kFailure, next_fail, 0.0, ai);
        }
        now = next_fail;
        ++res.failures;
        ++am->failures_hit;
        next_fail = fail_times[cursor++];
        if (++plan_idx == cycle) plan_idx = 0;
        break;  // next gap: re-plan from the new failure count
      }
      am->useful += tau;
      am->io += delta;
      ++am->checkpoints;
      if constexpr (kNarrate) {
        emit(sink, obs::EventKind::kCheckpointBegin, write_start, 0.0, ai);
        emit(sink, obs::EventKind::kCheckpointCommit, seg_end, delta, ai, tau);
      }
      now = seg_end;
      if (++done_in_phase >= plan[phase].budget) {
        ++phase;
        const std::size_t next_app = plan[phase].app;
        if (next_app != ai) {
          ++res.switches;  // free hand-off (switch_cost 0)
          if constexpr (kNarrate) {
            // The loop's switch span is `switch_end - now` with
            // switch_end == now: exactly 0.0.
            emit(sink, obs::EventKind::kAppSwitch, now, 0.0, next_app,
                 static_cast<double>(ai));
          }
        }
        ai = next_app;
        tau = taus[ai];
        delta = deltas[ai];
        am = &res.apps[ai];
        done_in_phase = 0;
      }
    }
  }
}

}  // namespace

const char* try_flat_replay(const EngineConfig& config, const std::vector<SimJob>& jobs,
                            const Scheduler& scheduler, const AlarmSource* alarms,
                            obs::EventSink* sink, const FailureTrace& trace,
                            SimResult* out) {
  SHIRAZ_REQUIRE(out != nullptr, "try_flat_replay needs an output slot");
  if (config.restart_cost != 0.0) return "restart cost is not free";
  if (config.switch_cost != 0.0) return "switch cost is not free";
  if (alarms != nullptr) return "an alarm source is armed";
  if (jobs.empty()) return "no jobs";
  for (const SimJob& job : jobs) {
    if (job.schedule == nullptr) return "job has no interval schedule";
    if (!job.schedule->period()) return "job schedule is not periodic";
  }
  // The plan is the last and most expensive rule, built once per repetition.
  PhasePlan flat;
  if (const char* reason = scheduler.flat_plan(jobs.size(), &flat)) return reason;
  // Narration is dispatched once per repetition, outside the hot loop.
  *out = sink != nullptr
             ? run_flat<true>(config, jobs, scheduler, flat, trace, sink)
             : run_flat<false>(config, jobs, scheduler, flat, trace, nullptr);
  return nullptr;
}

void flat_pair_sweep_rep(Seconds tau_lw, Seconds delta_lw, Seconds tau_hw,
                         Seconds delta_hw, int k_lo, Seconds horizon,
                         const FailureTrace& trace,
                         std::span<std::size_t> lw_out,
                         std::span<std::size_t> hw_out) {
  SHIRAZ_REQUIRE(k_lo >= 1, "invalid k range");
  SHIRAZ_REQUIRE(lw_out.size() == hw_out.size() && !lw_out.empty(),
                 "sweep count outputs must be non-empty and equally sized");
  const std::size_t n = lw_out.size();
  const int k_hi = k_lo + static_cast<int>(n) - 1;
  const std::size_t k_lo_sz = static_cast<std::size_t>(k_lo);
  const std::size_t k_hi_sz = static_cast<std::size_t>(k_hi);
  // Completed light-weight segment end times of the current gap, shared by
  // every candidate that has not switched yet (the intervals are all tau_lw).
  // A flat scratch buffer indexed by a count — the prefix loop is the hottest
  // code in the sweep and a push_back capacity check per segment shows up.
  std::vector<Seconds> seg_end_buf(k_hi_sz);
  Seconds* const seg_end_at = seg_end_buf.data();

  // The counts accumulate in a private buffer and are copied out once: the
  // caller's outputs for neighbouring repetitions may share a cache line,
  // and another worker may be filling them at the same time.
  std::vector<std::size_t> counts(2 * n, 0);
  std::size_t* const lw_segments = counts.data();
  std::size_t* const hw_segments = lw_segments + n;

  const Seconds* fail_times = trace.fail_times().data();
  std::size_t cursor = 0;
  Seconds gap_start = 0.0;
  Seconds next_fail = fail_times[cursor++];
  for (;;) {
    // Light-weight prefix: the engine's comparisons verbatim, with the
    // periodic interval hoisted out of the loop.
    std::size_t completed = 0;
    Seconds now = gap_start;
    while (completed < k_hi_sz) {
      const Seconds seg_end = now + tau_lw + delta_lw;
      if (horizon <= seg_end && horizon <= next_fail) break;
      if (next_fail < seg_end) break;
      seg_end_at[completed++] = seg_end;
      now = seg_end;
    }

    // Candidates split into two branch-free ranges: k <= completed switched
    // (credit k, walk the heavy-weight tail); the rest were still
    // light-weight when the gap ended (credit every completed segment).
    const std::size_t switched =
        completed < k_lo_sz ? 0 : std::min(n, completed - k_lo_sz + 1);
    for (std::size_t i = 0; i < switched; ++i) lw_segments[i] += k_lo_sz + i;
    for (std::size_t i = switched; i < n; ++i) lw_segments[i] += completed;

    // Heavy-weight tails in lockstep. Lane i is candidate k_lo + i's clock,
    // starting at its switch time seg_end_at[k - 1] (in place: the prefix is
    // done with the buffer). A step advances every active lane by the
    // per-candidate loop's own expression, then pops the lanes that stop.
    // Popping from the top is exact: the lanes start in non-decreasing order;
    // round-to-nearest addition is monotone (x <= y implies fl(x + c) <=
    // fl(y + c)), so they stay ordered; and for this gap's next_fail and
    // horizon the stop test is monotone in seg_end — so at every step the
    // lanes that stop are a top suffix. Each lane performs the same doubles
    // as a serial walk and stops at the same step, so a popped lane's count
    // (the steps it completed) is the serial loop's; what changes is that the
    // adds no longer form one dependent chain per candidate.
    Seconds* const lane = seg_end_at + (k_lo_sz - 1);
    auto stops = [&](Seconds seg_end) {
      return (horizon <= seg_end && horizon <= next_fail) || next_fail < seg_end;
    };
    std::size_t active = switched;
    for (std::size_t steps = 0; active > 0; ++steps) {
      for (std::size_t i = 0; i < active; ++i) lane[i] = lane[i] + tau_hw + delta_hw;
      while (active > 0 && stops(lane[active - 1])) hw_segments[--active] += steps;
    }

    if (next_fail >= horizon) break;
    gap_start = next_fail;
    next_fail = fail_times[cursor++];
  }

  std::copy(lw_segments, lw_segments + n, lw_out.begin());
  std::copy(hw_segments, hw_segments + n, hw_out.begin());
}

}  // namespace shiraz::sim
