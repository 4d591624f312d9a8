#include "sim/kernel.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
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
    // The running app's useful/io/checkpoints live in locals, written back at
    // a failure, at the horizon and at an app change: through `am` every
    // segment's adds would go to memory (a double store may alias the failure
    // times, a size_t store the plan's budgets). Same doubles, same order.
    Seconds useful = am->useful;
    Seconds io = am->io;
    std::size_t checkpoints = am->checkpoints;
    auto flush = [&] {
      am->useful = useful;
      am->io = io;
      am->checkpoints = checkpoints;
    };
    std::size_t done_in_phase = 0;
    for (;;) {
      // The engine's exact segment resolution: compute [now, write_start),
      // checkpoint write [write_start, seg_end), three-way compare.
      const Seconds write_start = now + tau;
      const Seconds seg_end = write_start + delta;
      if (horizon <= seg_end && horizon <= next_fail) {
        flush();
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
        flush();
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
      useful += tau;
      io += delta;
      ++checkpoints;
      if constexpr (kNarrate) {
        emit(sink, obs::EventKind::kCheckpointBegin, write_start, 0.0, ai);
        emit(sink, obs::EventKind::kCheckpointCommit, seg_end, delta, ai, tau);
      }
      now = seg_end;
      if (++done_in_phase >= plan[phase].budget) {
        ++phase;
        const std::size_t next_app = plan[phase].app;
        if (next_app != ai) {
          flush();
          ++res.switches;  // free hand-off (switch_cost 0)
          if constexpr (kNarrate) {
            // The loop's switch span is `switch_end - now` with
            // switch_end == now: exactly 0.0.
            emit(sink, obs::EventKind::kAppSwitch, now, 0.0, next_app,
                 static_cast<double>(ai));
          }
          ai = next_app;
          tau = taus[ai];
          delta = deltas[ai];
          am = &res.apps[ai];
          useful = am->useful;
          io = am->io;
          checkpoints = am->checkpoints;
        }
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
  // Heavy-weight lanes advance in blocks of this many (see the lane step).
  constexpr std::size_t kLaneBlock = 4;
  // Completed light-weight segment end times of the current gap, shared by
  // every candidate that has not switched yet (the intervals are all tau_lw).
  // A flat scratch buffer indexed by a count — the prefix loop is the hottest
  // code in the sweep and a push_back capacity check per segment shows up.
  // The kLaneBlock - 1 entries past k_hi pad the last lane block.
  std::vector<Seconds> seg_end_buf(k_hi_sz + kLaneBlock - 1, 0.0);
  Seconds* const seg_end_at = seg_end_buf.data();

  // gaps_with[c] counts the gaps whose light-weight prefix completed c
  // segments (c <= k_hi); the light-weight counts are derived from it once,
  // after the last gap. The heavy-weight counts accumulate in a private
  // buffer and are copied out once: the caller's outputs for neighbouring
  // repetitions may share a cache line, and another worker may be filling
  // them at the same time.
  std::vector<std::size_t> gaps_with(k_hi_sz + 1, 0);
  std::vector<std::size_t> hw_segments(n, 0);

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
    ++gaps_with[completed];

    // Heavy-weight tails in lockstep, one per candidate k <= completed (at
    // most n: completed <= k_hi); the rest were still light-weight when the
    // gap ended. Lane i is candidate k_lo + i's clock, starting at its switch
    // time seg_end_at[k - 1] (in place: the prefix is done with the buffer).
    // A step advances every active lane by the per-candidate loop's own
    // expression, then pops the lanes that stop.
    // Popping from the top is exact: the lanes start in non-decreasing order;
    // round-to-nearest addition is monotone (x <= y implies fl(x + c) <=
    // fl(y + c)), so they stay ordered; and for this gap's next_fail and
    // horizon the stop test is monotone in seg_end — so at every step the
    // lanes that stop are a top suffix. Each lane performs the same doubles
    // as a serial walk and stops at the same step, so a popped lane's count
    // (the steps it completed) is the serial loop's; what changes is that the
    // adds no longer form one dependent chain per candidate.
    //
    // The step runs in whole blocks of kLaneBlock lanes, the last one rounded
    // up, so GCC packs each block's independent adds (addpd); every element
    // still computes its own `lane + tau_hw + delta_hw`. The lanes a block
    // carries past `active` are dead: popped earlier (their counts are in),
    // not switched this gap, or padding past k_hi. No pop reads them, and a
    // later gap steps a lane only after its prefix wrote a fresh switch time
    // there.
    Seconds* const lane = seg_end_at + (k_lo_sz - 1);
    auto stops = [&](Seconds seg_end) {
      return (horizon <= seg_end && horizon <= next_fail) || next_fail < seg_end;
    };
    std::size_t active = completed < k_lo_sz ? 0 : completed - k_lo_sz + 1;
    for (std::size_t steps = 0; active > 0; ++steps) {
      for (std::size_t i = 0; i < active; i += kLaneBlock) {
        Seconds* const block = lane + i;
        for (std::size_t j = 0; j < kLaneBlock; ++j) {
          block[j] = block[j] + tau_hw + delta_hw;
        }
      }
      while (active > 0 && stops(lane[active - 1])) hw_segments[--active] += steps;
    }

    if (next_fail >= horizon) break;
    gap_start = next_fail;
    next_fail = fail_times[cursor++];
  }

  // Candidate k earns min(k, c) light-weight segments in a gap whose prefix
  // completed c, so over the repetition it earns
  //   sum_{c < k} c * gaps_with[c]  +  k * #{gaps with c >= k},
  // the per-gap sum regrouped in integers.
  std::size_t credit_below = 0;  // sum_{c < k} c * gaps_with[c]
  std::size_t gaps_at_least = std::accumulate(gaps_with.begin(), gaps_with.end(),
                                              std::size_t{0});  // c >= k
  for (std::size_t k = 1; k <= k_hi_sz; ++k) {
    credit_below += (k - 1) * gaps_with[k - 1];
    gaps_at_least -= gaps_with[k - 1];
    if (k >= k_lo_sz) lw_out[k - k_lo_sz] = credit_below + k * gaps_at_least;
  }
  std::copy(hw_segments.begin(), hw_segments.end(), hw_out.begin());
}

}  // namespace shiraz::sim
