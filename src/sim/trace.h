// Failure-trace memoization: sample each failure stream once, replay it
// everywhere.
//
// Engine::run draws failures identically for a given seed regardless of
// policy (common random numbers), yet a switch-point sweep re-derives that
// identical stream draw by draw — a std::function call, a virtual
// Distribution::sample and a pow/log1p inverse transform per gap, times reps,
// times every candidate k. A FailureTrace materializes one repetition's
// inter-failure gaps up to the horizon in a single batched pass
// (reliability::Distribution::sample_gaps hoists the per-draw dispatch); a
// TraceStore caches one trace per repetition, keyed by (seed, rep), so every
// campaign over the same seed replays plain arrays instead.
//
// Replay is bit-identical to live sampling (tests/sim/trace_replay_test.cpp):
// the trace caches the failure times as prefix sums of its gaps, built with
// the same `now + gap` additions a live run performs; the event loop, the
// flat kernel and the pair sweep all read those sums (fail_time() /
// fail_times()); and alarm RNGs fork from the seed — not from generator
// state — so prediction runs replay unchanged too.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "sim/engine.h"

namespace shiraz::reliability {
class FailureRegime;
}  // namespace shiraz::reliability

namespace shiraz::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace shiraz::obs

namespace shiraz::sim {

/// One repetition's inter-failure gaps, materialized up to a horizon. The
/// last gap is the first whose running sum crosses the horizon — exactly the
/// draws a live Engine::run consumes, no more and no fewer.
///
/// Alongside the gaps, the constructor caches the absolute failure times as
/// prefix sums computed with the same sequential additions a live run
/// performs (`fail_i = fail_{i-1} + gap_i`, starting from 0): at every
/// failure the engine's clock sits exactly on the previous failure time, so
/// `now + gap` and the cached prefix sum are the same double. Consumers
/// (engine replay, the sweep/kernel paths) read fail_time() instead of
/// re-deriving running sums per campaign.
class FailureTrace {
 public:
  FailureTrace(std::vector<Seconds> gaps, Seconds horizon);

  /// The i-th gap. Replays read the prefix sums (fail_time()), not this.
  Seconds gap(std::size_t i) const {
    SHIRAZ_REQUIRE(i < gaps_.size(), "failure trace exhausted before the horizon");
    return gaps_[i];
  }

  /// Absolute time of the i-th failure (prefix sum of gaps [0, i]) —
  /// bit-identical to the `now + gap` reconstruction a live run performs.
  Seconds fail_time(std::size_t i) const {
    SHIRAZ_REQUIRE(i < fail_times_.size(),
                   "failure trace exhausted before the horizon");
    return fail_times_[i];
  }

  /// Structure-of-arrays views for batched consumers (sim/kernel.cpp). The
  /// invariants hold: fail_times().back() >= horizon() and every earlier
  /// entry is < horizon(), so a replay that only advances while the next
  /// failure precedes the horizon never runs off the end.
  const std::vector<Seconds>& gaps() const { return gaps_; }
  const std::vector<Seconds>& fail_times() const { return fail_times_; }

  std::size_t size() const { return gaps_.size(); }
  Seconds horizon() const { return horizon_; }

 private:
  std::vector<Seconds> gaps_;
  std::vector<Seconds> fail_times_;
  Seconds horizon_;
};

/// Lazily materialized per-repetition traces for one (engine, seed) pair.
/// Repetition r samples with `Rng(seed).fork(r)` — the stream Engine
/// campaigns assign to repetition r — via the engine's distribution's batched
/// sample_gaps when the engine was built from a Distribution, or its
/// GapSampler otherwise (non-stationary processes memoize just as well: the
/// gap-start argument is the same policy-independent prefix sum either way).
///
/// Thread-safe; campaigns call ensure() up front so parallel repetitions only
/// read. Slots are stable (unique_ptr), so returned references survive later
/// growth.
class TraceStore {
 public:
  /// Traces for `engine`'s failure process up to `engine.config().t_total`.
  TraceStore(const Engine& engine, std::uint64_t seed);

  /// Same, with an explicit horizon (e.g. to share one store across engines
  /// that differ only in costs, or to pre-sample past the longest horizon).
  TraceStore(const Engine& engine, std::uint64_t seed, Seconds horizon);

  /// Traces for a correlated failure regime (src/reliability/regimes.h):
  /// repetition r materializes via `regime.sample_gaps(Rng(seed).fork(r))`,
  /// the exact draw pass a regime sampler performs live, so replay stays
  /// bit-identical for non-renewal processes too. This is the ONLY safe way
  /// to run a stateful regime through a parallel campaign — the live
  /// cursor adapter is serial-only (see FailureRegime::sampler).
  TraceStore(const reliability::FailureRegime& regime, std::uint64_t seed,
             Seconds horizon);

  std::uint64_t seed() const { return seed_; }
  Seconds horizon() const { return horizon_; }

  /// Arms telemetry: subsequent materializations and lookups count into
  /// `registry` (shiraz_trace_* counters plus a resident-bytes gauge).
  /// Metrics are pure observers — they never change which traces exist or
  /// what they contain — so arming them is bit-identical to an unarmed
  /// store. Pass nullptr to disarm. Not thread-safe against concurrent
  /// ensure()/trace() calls; arm before the campaigns start.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Materializes repetitions [0, reps) that are not yet cached.
  void ensure(std::size_t reps) const;

  /// The trace of repetition `rep`, materializing it on first use.
  const FailureTrace& trace(std::size_t rep) const;

  /// How many repetitions are currently materialized (laziness observable).
  std::size_t materialized() const;

  /// Total gaps across materialized repetitions (throughput accounting).
  std::size_t total_gaps() const;

 private:
  std::unique_ptr<FailureTrace> materialize(std::size_t rep) const;
  /// Counts one freshly materialized trace (call with mu_ held).
  void note_materialized(const FailureTrace& trace) const;

  GapSampler sampler_;
  std::shared_ptr<const reliability::Distribution> dist_;
  std::shared_ptr<const reliability::FailureRegime> regime_;
  std::uint64_t seed_;
  Seconds horizon_;
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<FailureTrace>> traces_;
  obs::Counter* traces_metric_ = nullptr;   ///< traces materialized
  obs::Counter* gaps_metric_ = nullptr;     ///< gaps materialized
  obs::Counter* hits_metric_ = nullptr;     ///< trace() calls served cached
  obs::Gauge* resident_metric_ = nullptr;   ///< bytes held by cached traces
};

}  // namespace shiraz::sim
