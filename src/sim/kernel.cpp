#include "sim/kernel.h"

#include <algorithm>
#include <bit>
#include <cmath>
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

/// The binade [2^e, 2^(e+1)) of a positive normal double. Its doubles are
/// exactly n·u for the integers n in [2^52, 2^53), u = 2^(e−52) being its
/// ulp, so x + c rounds to x plus a whole number of ulps, and that number
/// depends on x only when c is a tie (an odd multiple of u/2, which rounds
/// to the even n). A clock that stays inside one binade therefore gains the
/// same ulps every step, and m steps are integer arithmetic on n
/// (DESIGN.md §10).
struct Binade {
  static constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
  static constexpr std::int64_t kTop = std::int64_t{1} << 53;     // n of 2^(e+1)

  std::uint64_t exponent = 0;  // the biased exponent field its doubles share
  Seconds u = 0.0;
  Seconds per_u = 0.0;  // 1/u, a power of two: scaling by it is exact

  /// x's binade; false unless x is a positive normal double whose ulp is
  /// normal too (the clock's start, 0, is not).
  static bool of(Seconds x, Binade* out) {
    const std::uint64_t e = std::bit_cast<std::uint64_t>(x) >> 52;
    if (e <= 52 || e >= 2047) return false;  // a sign bit makes e >= 2048
    out->exponent = e;
    out->u = std::bit_cast<Seconds>((e - 52) << 52);
    // Biased exponent of 2^(52 − (e − 1023)): 2098 − e, normal for these e.
    out->per_u = std::bit_cast<Seconds>((2098 - e) << 52);
    return true;
  }

  bool contains(Seconds y) const {
    return std::bit_cast<std::uint64_t>(y) >> 52 == exponent;
  }
  /// n with y == n·u, for y in the binade.
  static std::int64_t units(Seconds y) {
    return static_cast<std::int64_t>((std::bit_cast<std::uint64_t>(y) & kFraction) |
                                     std::uint64_t{1} << 52);
  }
  Seconds at(std::int64_t n) const { return static_cast<Seconds>(n) * u; }

  /// The ulps `x += c` adds (fl(x + c) − x, over u) for every x in the binade
  /// whose sum stays there, read at x = 2^e (c > 0); -1 when c is a tie
  /// (|c − that| == u/2), where the rounding would depend on x; 2^53, more
  /// than any walk inside the binade covers, when even 2^e + c leaves it.
  /// With `even`, for the x whose n is even: a tie rounds each of their sums
  /// to the even neighbour, so it adds the same even ulps it adds at 2^e.
  std::int64_t step(Seconds c, bool even = false) const {
    const Seconds bottom = std::bit_cast<Seconds>(exponent << 52);  // 2^e
    const Seconds added = (bottom + c) - bottom;
    if (added >= bottom) return kTop;
    if (!even && std::abs(c - added) == 0.5 * u) return -1;
    return static_cast<std::int64_t>(added * per_u);
  }

  /// How many steps of d ulps from n stay inside the binade (n in it,
  /// d >= 0; at most 2^53 when d is 0).
  static std::int64_t room(std::int64_t n, std::int64_t d) {
    return d == 0 ? kTop : (kTop - 1 - n) / d;
  }

  /// Whether m steps of d ulps from n stay inside the binade (n in it, m and
  /// d >= 0): short jumps with d <= 2^53 multiply without overflow, longer
  /// ones divide.
  static bool fits(std::int64_t n, std::int64_t m, std::int64_t d) {
    if (m < 1024 && d <= kTop) return n + m * d < kTop;
    return m <= room(n, d);
  }
};

/// Whole light-weight segments a gap's prefix must be able to complete
/// before flat_pair_sweep_rep counts the gap instead of stepping it: a gap
/// that ends within a segment or two steps about as fast as it divides
/// (measured, DESIGN.md §10).
constexpr std::int64_t kCountCutoff = 2;

/// Whole segments a jump in run_flat must skip: a jump reads only the
/// clock's binade and costs about as much as a segment step or two, so all
/// but single segments pay (measured, DESIGN.md §10).
constexpr std::int64_t kJumpCutoff = 2;

}  // namespace

IteratedSum::IteratedSum(Seconds x0, Seconds c) { restart(x0, c); }

void IteratedSum::restart(Seconds x0, Seconds c) {
  c_ = c;
  runs_.clear();
  runs_.push_back(run_from(0, x0));
}

IteratedSum::Run IteratedSum::run_from(std::size_t first, Seconds x) const {
  Run run{first, first, x, 0, 0, 0.0};
  Binade bin;
  if (Binade::of(x, &bin)) {
    // From an even n a tie adds even ulps, so every later sum is even too.
    const std::int64_t d = bin.step(c_, Binade::units(x) % 2 == 0);
    if (d >= 0) {  // not a tie from an odd n
      run.n = Binade::units(x);
      run.d = d;
      run.u = bin.u;
      run.last = first + static_cast<std::size_t>(Binade::room(run.n, d));
    }
  }
  return run;
}

Seconds IteratedSum::after(std::size_t m) {
  while (runs_.back().last < m) {
    // The add past the last run: the first from 0, a tie's from odd units,
    // or the one that crosses a power of two.
    Run& last = runs_.back();
    const Seconds x = at(last, last.last);
    const Seconds next = x + c_;
    if (next == x) {
      last.last = static_cast<std::size_t>(-1);  // no add moves it again
    } else {
      runs_.push_back(run_from(last.last + 1, next));
    }
  }
  const Run* run = runs_.data();
  while (run->last < m) ++run;
  return at(*run, m);
}

Seconds IteratedSum::at(const Run& run, std::size_t m) {
  if (run.d == 0) return run.start;
  return static_cast<Seconds>(run.n + static_cast<std::int64_t>(m - run.first) * run.d) *
         run.u;
}

namespace {

/// `c` summed m times from 0.0, read off this thread's path for c. A
/// campaign's repetitions share every app's tau and delta, so after its
/// first repetition on a thread each sum is a lookup; a pure function of
/// (c, m), so which thread or slot answers never changes a bit.
Seconds summed(Seconds c, std::size_t m) {
  constexpr std::size_t kPaths = 16;
  thread_local std::vector<IteratedSum> paths;
  thread_local std::size_t oldest = 0;
  for (IteratedSum& path : paths) {
    if (path.step() == c) return path.after(m);
  }
  if (paths.size() < kPaths) return paths.emplace_back(0.0, c).after(m);
  IteratedSum& path = paths[oldest];
  oldest = (oldest + 1) % kPaths;
  path.restart(0.0, c);
  return path.after(m);
}

/// The stop bound of a gap's walk, as the engine's stop test reads it: a
/// segment ending at seg_end completes iff seg_end <= next_fail when the
/// failure comes before the horizon (inclusive), else iff seg_end < horizon
/// (exclusive). Returns false when the bound leaves the binade of `start` —
/// a power of two inside the walk — and otherwise the bound's distance from
/// `start` in ulps, less one when exclusive: a segment ending n·u past
/// `start` completes iff n <= *span.
bool span_in_binade(const Binade& bin, Seconds start, Seconds next_fail,
                    Seconds horizon, std::int64_t* span) {
  const bool inclusive = next_fail < horizon;
  const Seconds bound = inclusive ? next_fail : horizon;
  if (!bin.contains(bound)) return false;
  *span = Binade::units(bound) - Binade::units(start) - (inclusive ? 0 : 1);
  return true;
}

/// A jump over a phase's whole segments: the run's clock after `segments`
/// of them (0: unmoved), and how many segments the per-segment loop steps
/// before the next try.
struct Jump {
  static constexpr std::size_t kNever = static_cast<std::size_t>(-1);

  std::size_t segments = 0;
  Seconds now = 0.0;
  std::size_t retry_after = kNever;
};

/// Jumps a phase that has `budget` segments to go from `now` over the whole
/// segments before the one that stops the run or ends the budget, as far as
/// the clock stays inside its binade: each segment adds the same ulps to it
/// there, so m segments add m times those ulps, the value the engine's m
/// rounds of `now + tau + delta` reach (DESIGN.md §10). Segments that stay in
/// the binade all complete, since the stop bound is past a binade that does
/// not hold it. A jump shorter than kJumpCutoff or a tie leaves the run
/// unmoved; when the binade's top (or a zero clock, the first gap's start)
/// is what cut the jump short, the next try comes after the segment that
/// crosses it.
Jump jump_segments(Seconds now, Seconds next_fail, Seconds horizon, Seconds tau,
                   Seconds delta, std::size_t budget) {
  Jump out{0, now, Jump::kNever};
  // Most phases are short: rule them out before any integer work. Rounding
  // makes this estimate of the segments before the bound inexact, which
  // only moves where a jump starts paying, not what it computes.
  if (budget <= static_cast<std::size_t>(kJumpCutoff) ||
      std::min(next_fail, horizon) - now <
          static_cast<Seconds>(kJumpCutoff) * (tau + delta)) {
    return out;
  }
  Binade clock;
  if (!Binade::of(now, &clock)) {
    out.retry_after = 1;
    return out;
  }
  const std::int64_t d_tau = clock.step(tau);
  const std::int64_t d_delta = clock.step(delta);
  const std::int64_t d = d_tau + d_delta;
  if (std::min(d_tau, d_delta) < 0 || d == 0 || d >= Binade::kTop) return out;
  // The segments before the stopping or budget-ending one: the budget's,
  // unless the stop bound is in the binade and comes first.
  const std::int64_t n_now = Binade::units(now);
  std::int64_t m = static_cast<std::int64_t>(
      std::min(budget - 1, static_cast<std::size_t>(Binade::kTop)));
  std::int64_t span = 0;
  if (span_in_binade(clock, now, next_fail, horizon, &span)) {
    if (m >= 1024 || m * d > span) m = std::min(m, span / d);
    if (m < kJumpCutoff) return out;
  } else if (!Binade::fits(n_now, m, d)) {
    // The binade's top comes first: jump to it, then step across.
    const std::int64_t room = Binade::room(n_now, d);
    out.retry_after = static_cast<std::size_t>(room) + 1;
    if (room < kJumpCutoff) return out;
    m = room;
    out.retry_after = 1;
  }
  out.segments = static_cast<std::size_t>(m);
  out.now = clock.at(n_now + m * d);
  return out;
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
    // Apps only count their segments here: the running app's count lives in
    // a local, written back at a failure, at the horizon and at an app change
    // (through `am` every segment's increment would go to memory, since a
    // size_t store may alias the plan's budgets), and the useful and io sums
    // are built from the counts at the horizon.
    std::size_t checkpoints = am->checkpoints;
    std::size_t done_in_phase = 0;
    [[maybe_unused]] std::size_t next_jump = 0;  // done_in_phase of the next try
    for (;;) {
      // Without a sink a phase opens with a jump over the segments before
      // the one that stops the run or ends its budget, as far as
      // jump_segments finds them exact, and tries again where it says;
      // everything else, and every narrated run, steps segment by segment.
      if constexpr (!kNarrate) {
        if (done_in_phase == next_jump) {
          const Jump j = jump_segments(now, next_fail, horizon, tau, delta,
                                       plan[phase].budget - done_in_phase);
          now = j.now;
          checkpoints += j.segments;
          done_in_phase += j.segments;
          next_jump = j.retry_after == Jump::kNever ? Jump::kNever
                                                    : done_in_phase + j.retry_after;
        }
      }
      // The engine's exact segment resolution: compute [now, write_start),
      // checkpoint write [write_start, seg_end), three-way compare.
      const Seconds write_start = now + tau;
      const Seconds seg_end = write_start + delta;
      if (horizon <= seg_end && horizon <= next_fail) {
        am->checkpoints = checkpoints;
        res.truncated += horizon - now;
        if constexpr (kNarrate) {
          if (horizon > write_start) {
            emit(sink, obs::EventKind::kCheckpointBegin, write_start, 0.0, ai);
          }
          emit(sink, obs::EventKind::kHorizonTruncated, now, horizon - now, ai);
        }
        // The engine adds an app's tau to its useful work and its delta to
        // its io once per completed segment, from 0.0.
        for (std::size_t i = 0; i < napps; ++i) {
          AppMetrics& app = res.apps[i];
          app.useful = summed(taus[i], app.checkpoints);
          app.io = summed(deltas[i], app.checkpoints);
        }
        return res;  // `now = horizon` in the engine; nothing reads it after
      }
      if (next_fail < seg_end) {
        am->checkpoints = checkpoints;
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
          am->checkpoints = checkpoints;
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
          checkpoints = am->checkpoints;
        }
        done_in_phase = 0;
        next_jump = 0;
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

  // Closed form for a gap whose whole walk stays inside its start's binade
  // (DESIGN.md §10). Every segment then adds d_lw ulps to the light-weight
  // clock and d_hw to a heavy-weight lane, so with `span` the ulps from the
  // gap start to the stop bound (span_in_binade), the shared prefix completes
  // min(k_hi, ⌊span/d_lw⌋) segments and candidate k's tail ⌊(span −
  // k·d_lw)/d_hw⌋. The tails come from one quotient/remainder pair stepped
  // down by d_lw = lw_q·d_hw + lw_r per candidate, with no division per lane.
  // The step sizes depend on the binade only, so they are kept across the
  // gaps that share one (no valid binade has exponent field 0).
  std::uint64_t steps_exponent = 0;
  bool steps_exact = false;
  std::int64_t d_lw = 0;
  std::int64_t d_hw = 0;
  std::int64_t lw_q = 0;
  std::int64_t lw_r = 0;
  auto count_in_binade = [&](Seconds gap_start, Seconds next_fail) {
    Binade bin;
    std::int64_t span = 0;
    if (!Binade::of(gap_start, &bin) ||
        !span_in_binade(bin, gap_start, next_fail, horizon, &span)) {
      return false;  // the first gap, from 0, or a power of two inside the walk
    }
    if (bin.exponent != steps_exponent) {
      steps_exponent = bin.exponent;
      const std::int64_t lw_tau = bin.step(tau_lw);
      const std::int64_t lw_delta = bin.step(delta_lw);
      const std::int64_t hw_tau = bin.step(tau_hw);
      const std::int64_t hw_delta = bin.step(delta_hw);
      d_lw = lw_tau + lw_delta;
      d_hw = hw_tau + hw_delta;
      steps_exact = std::min({lw_tau, lw_delta, hw_tau, hw_delta}) >= 0 &&
                    d_lw > 0 && d_hw > 0;
      if (steps_exact) {
        lw_q = d_lw / d_hw;
        lw_r = d_lw % d_hw;
      }
    }
    // A period on a tie, or a run too short to pay for the divisions.
    if (!steps_exact || span < kCountCutoff * d_lw) return false;
    const std::size_t completed =
        std::min(k_hi_sz, static_cast<std::size_t>(span / d_lw));
    ++gaps_with[completed];
    if (completed < k_lo_sz) return true;
    const std::int64_t tail = span - static_cast<std::int64_t>(k_lo_sz) * d_lw;
    std::int64_t q = tail / d_hw;
    std::int64_t r = tail % d_hw;
    for (std::size_t i = 0;; ++i) {
      hw_segments[i] += static_cast<std::size_t>(q);
      if (i == completed - k_lo_sz) return true;
      q -= lw_q;
      r -= lw_r;
      const std::int64_t borrow = r >> 63;  // -1 when r went negative, else 0
      r += borrow & d_hw;
      q += borrow;
    }
  };

  const Seconds* fail_times = trace.fail_times().data();
  std::size_t cursor = 0;
  Seconds gap_start = 0.0;
  Seconds next_fail = fail_times[cursor++];
  for (;;) {
    if (!count_in_binade(gap_start, next_fail)) {
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
