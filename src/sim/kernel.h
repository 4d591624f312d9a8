// Flat replay kernel: batched structure-of-arrays campaign evaluation.
//
// For closed-form-eligible configurations — free restarts and switches,
// periodic schedules, no alarm source, and a scheduler whose per-gap
// behavior is a fixed phase plan (Scheduler::flat_plan) — a campaign over a
// materialized FailureTrace is fully determined by the trace's prefix-sum
// array. The kernel walks that array directly: no virtual next_interval per
// segment, no SchedContext construction, no per-gap checkpoint-count
// vectors — just the engine's three comparisons and a segment count per
// segment.
//
// Bit-identity contract (the same one sim/optimizer.cpp's sweep documents):
// the kernel performs the engine's lost/truncated additions on the same
// doubles in the same chronological order, builds each app's useful/io from
// its segment count with the engine's adds (m rounds of `+= tau`, or of
// `+= delta`, from 0.0: IteratedSum), resolves every segment with the
// engine's exact comparison structure (`write_start = now + tau; seg_end =
// write_start + delta`; truncate iff horizon <= min(seg_end, next_fail);
// fail iff next_fail < seg_end), and reads failure times from
// FailureTrace::fail_times() — prefix sums built with the additions a live
// run performs. The result therefore equals Engine::replay bit for bit
// (enforced by tests/sim/kernel_test.cpp and micro_engine_throughput
// --check); Engine::run_impl dispatches every replay here when
// EngineConfig::flat_kernel is set, and runs the event loop when
// try_flat_replay returns a reason.
//
// Narration contract: an event sink does not make a run ineligible. With a
// sink armed the kernel emits exactly the event loop's stream for the same
// run — checkpoint-begin, checkpoint-commit, segment-wiped, failure,
// app-switch and horizon-truncated, in the loop's order and with its
// doubles (the only kinds an eligible run can produce) — so an
// InvariantAuditor armed on the kernel audits the numbers the kernel
// returns. Without a sink the kernel is the same loop with no emit code at
// all (narration is a template parameter, not a per-event branch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/engine.h"

namespace shiraz::sim {

/// The engine's dispatch entry. Checks the rules the kernel relies on, in
/// order, and returns the static reason of the first that fails, leaving
/// `*out` untouched so the caller falls back to the event loop:
///  * config models free restarts and switches (restart_cost == switch_cost
///    == 0);
///  * no alarm source (pass the call-site value);
///  * at least one job, and every job schedule is periodic
///    (IntervalSchedule::period() non-null);
///  * the scheduler has a phase plan for jobs.size() apps
///    (Scheduler::flat_plan's reason otherwise), built once per call.
/// The event loop then preserves both behavior and error messages (e.g. a
/// pair policy given three apps still throws the policy's own
/// InvalidArgument). Event sinks play no part (see the narration contract
/// above). When every rule holds, replays one repetition of `trace` — whose
/// horizon must cover the config's — into `*out`, narrating into `sink` when
/// it is non-null, and returns nullptr: exactly what Engine::replay returns
/// and narrates for the same inputs. Apps count their completed segments,
/// and each app's useful work and io are read at the horizon off an
/// IteratedSum path for its count (each thread keeps its recent paths).
/// Without a sink, a phase's whole segments before the one that stops the
/// run or ends the phase's budget go in one integer jump wherever the clock
/// stays inside one binade (DESIGN.md §10); the rest, and every narrated
/// run, step segment by segment.
const char* try_flat_replay(const EngineConfig& config, const std::vector<SimJob>& jobs,
                            const Scheduler& scheduler, const AlarmSource* alarms,
                            obs::EventSink* sink, const FailureTrace& trace,
                            SimResult* out);

/// The values of m rounds of `x += c` from x0 (x0 >= 0, c > 0), bit for
/// bit: the engine's accumulation of one app's m equal adds, from 0.0. Inside
/// a binade of the running sum every add is the same whole number of ulps
/// (DESIGN.md §10), and where c is a tie so is every add from even units on,
/// since a tie rounds to the even neighbour. So the path is kept as straight
/// runs, about one per binade, and only the first add from 0, a tie's add
/// from odd units and the adds that cross a power of two are performed. The
/// path grows as far as it is asked; an add that leaves the sum unchanged
/// ends it.
class IteratedSum {
 public:
  IteratedSum(Seconds x0, Seconds c);

  /// Starts the path over from x0 with step c, keeping its storage.
  void restart(Seconds x0, Seconds c);
  Seconds step() const { return c_; }
  /// x0 after m adds.
  Seconds after(std::size_t m);

 private:
  /// Counts first..last: the sum is `start` at first and gains d ulps u per
  /// add (d == 0: `start` throughout).
  struct Run {
    std::size_t first;
    std::size_t last;
    Seconds start;
    std::int64_t n;  // start in ulps u, when d > 0
    std::int64_t d;
    Seconds u;
  };

  /// The run that starts at count `first` with sum x: the adds that keep x's
  /// binade, or x alone where it has none or c is a tie there and x's units
  /// are odd.
  Run run_from(std::size_t first, Seconds x) const;
  static Seconds at(const Run& run, std::size_t m);

  Seconds c_ = 0.0;
  std::vector<Run> runs_;
};

/// One repetition of the shared-prefix k sweep on the kernel: the flat
/// counterpart of sim/optimizer.cpp's sweep_one_rep for periodic schedules,
/// with the light-weight interval hoisted to `tau_lw` (== the LW schedule's
/// period) and the heavy-weight to `tau_hw`. Writes, per candidate
/// k = k_lo + i for i in [0, lw_out.size()), the number of light-weight
/// (lw_out[i]) and heavy-weight (hw_out[i]) segments ShirazPair(k) completes
/// over `trace`; k_lo must be >= 1 and both spans non-empty and equally
/// sized. Counts, not doubles: the engine adds the same `tau` once per
/// completed segment from 0.0, so m sequential `+= tau` from 0.0 (an
/// iterated-sum table, built once per sweep by replay_pair_sweep) is the
/// engine's useful work bit for bit — the hoisted period equals every
/// next_interval return by the period() contract. A gap whose whole walk
/// stays inside its start's binade is counted, not stepped: with R the ulps
/// from the gap start to its stop bound, the shared prefix completes
/// min(k_hi, ⌊R/d_lw⌋) segments and candidate k's tail ⌊(R − k·d_lw)/d_hw⌋,
/// d_lw and d_hw being the ulps one segment adds there. Every other gap (the
/// first, from 0; one with a power of two inside the walk; a period on a tie
/// there; a prefix shorter than the cutoff) steps: the heavy-weight tails of
/// all switched candidates advance in lockstep, four lanes per block. The
/// light-weight counts come from a per-repetition histogram of how many
/// segments each gap's shared prefix completed (DESIGN.md §10).
void flat_pair_sweep_rep(Seconds tau_lw, Seconds delta_lw, Seconds tau_hw,
                         Seconds delta_hw, int k_lo, Seconds horizon,
                         const FailureTrace& trace,
                         std::span<std::size_t> lw_out,
                         std::span<std::size_t> hw_out);

}  // namespace shiraz::sim
