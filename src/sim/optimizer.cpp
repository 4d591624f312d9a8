#include "sim/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>

#include "common/error.h"
#include "common/thread_pool.h"
#include "sim/kernel.h"
#include "sim/trace.h"

namespace shiraz::sim {

namespace {

SimSwitchCandidate candidate_from(int k, double lw_useful, double hw_useful,
                                  const SimResult& base) {
  SimSwitchCandidate c;
  c.k = k;
  c.delta_lw = lw_useful - base.apps[0].useful;
  c.delta_hw = hw_useful - base.apps[1].useful;
  c.delta_total = c.delta_lw + c.delta_hw;
  return c;
}

/// One repetition of the shared-prefix k sweep. Mirrors Engine::run for
/// ShirazPairScheduler under the free-restart/free-switch configuration and
/// accumulates, per candidate, exactly the useful-work additions the engine
/// performs in exactly its chronological order — the per-app accumulators see
/// the same doubles added in the same sequence, so the per-repetition totals
/// are bit-identical to engine replays of the same trace.
void sweep_one_rep(const SimJob& lw, const SimJob& hw, int k_lo, int k_hi,
                   Seconds horizon, const FailureTrace& trace,
                   std::vector<SweepUseful>& acc) {
  const std::size_t n = acc.size();
  // Periodic schedules answer next_interval identically for every elapsed
  // time (the period() contract: bit-equal to each virtual call), so the
  // dispatch hoists out of the per-segment loops. Aperiodic schedules keep
  // the per-segment call.
  const std::optional<Seconds> lw_period = lw.schedule->period();
  const std::optional<Seconds> hw_period = hw.schedule->period();
  // Completed light-weight segments of the current gap: interval lengths and
  // segment-end times, shared by every candidate that has not switched yet.
  std::vector<Seconds> seg_tau;
  std::vector<Seconds> seg_end_at;
  seg_tau.reserve(static_cast<std::size_t>(k_hi));
  seg_end_at.reserve(static_cast<std::size_t>(k_hi));

  std::size_t cursor = 0;
  Seconds gap_start = 0.0;
  Seconds next_fail = trace.fail_time(cursor++);
  for (;;) {
    // Light-weight prefix: segments complete until the gap ends (failure or
    // horizon) or every candidate has switched (k_hi checkpoints). The
    // three-way resolution matches the engine's comparisons verbatim.
    seg_tau.clear();
    seg_end_at.clear();
    Seconds now = gap_start;
    while (static_cast<int>(seg_tau.size()) < k_hi) {
      const Seconds tau =
          lw_period ? *lw_period : lw.schedule->next_interval(now - gap_start);
      const Seconds seg_end = now + tau + lw.delta;
      if (horizon <= std::min(seg_end, next_fail)) break;
      if (next_fail < seg_end) break;
      seg_tau.push_back(tau);
      seg_end_at.push_back(seg_end);
      now = seg_end;
    }
    const std::size_t completed = seg_tau.size();

    // Per candidate: useful light-weight work up to its switch point, then
    // its heavy-weight tail until the gap ends. The prefix is shared; each
    // tail is walked on its own (the flat kernel walks them in lockstep).
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = static_cast<std::size_t>(k_lo) + i;
      const std::size_t credited = std::min(k, completed);
      for (std::size_t j = 0; j < credited; ++j) acc[i].lw += seg_tau[j];
      if (k > completed) continue;  // still light-weight when the gap ended
      Seconds t = seg_end_at[k - 1];
      for (;;) {
        const Seconds tau =
            hw_period ? *hw_period : hw.schedule->next_interval(t - gap_start);
        const Seconds seg_end = t + tau + hw.delta;
        if (horizon <= std::min(seg_end, next_fail)) break;
        if (next_fail < seg_end) break;
        acc[i].hw += tau;
        t = seg_end;
      }
    }

    if (next_fail >= horizon) break;
    gap_start = next_fail;
    next_fail = trace.fail_time(cursor++);
  }
}

}  // namespace

SimSwitchCandidate simulate_switch_point(const Engine& engine, const SimJob& lw,
                                         const SimJob& hw, int k, std::size_t reps,
                                         std::uint64_t seed, std::size_t workers) {
  // Same seed => same failure streams for both policies (the engine draws
  // failures identically regardless of policy), so the difference is pure
  // policy effect; the store makes the sharing explicit and samples once.
  TraceStore traces(engine, seed);
  traces.ensure(reps);
  CampaignOptions opts;
  opts.workers = workers;
  opts.traces = &traces;
  const std::vector<SimJob> jobs{lw, hw};
  const AlternateAtFailure baseline_policy;
  const SimResult base = engine.run_many(jobs, baseline_policy, reps, seed, opts);
  return simulate_switch_point(engine, lw, hw, k, base, reps, seed, opts);
}

SimSwitchCandidate simulate_switch_point(const Engine& engine, const SimJob& lw,
                                         const SimJob& hw, int k,
                                         const SimResult& baseline,
                                         std::size_t reps, std::uint64_t seed,
                                         const CampaignOptions& opts) {
  const std::vector<SimJob> jobs{lw, hw};
  const ShirazPairScheduler shiraz_policy(k);
  const SimResult sz = engine.run_many(jobs, shiraz_policy, reps, seed, opts);
  return candidate_from(k, sz.apps[0].useful, sz.apps[1].useful, baseline);
}

SimSwitchSolution find_fair_k_by_simulation(const Engine& engine, const SimJob& lw,
                                            const SimJob& hw, int k_lo, int k_hi,
                                            std::size_t reps, std::uint64_t seed,
                                            std::size_t workers) {
  SHIRAZ_REQUIRE(k_lo >= 1 && k_hi >= k_lo, "invalid k range");
  const std::vector<SimJob> jobs{lw, hw};

  // Sample every repetition's failure stream once and spawn threads once:
  // the baseline and all candidates replay the same store on the same pool.
  TraceStore traces(engine, seed);
  traces.ensure(reps);
  std::optional<common::ThreadPool> pool;
  if (workers > 1 && reps > 1) pool.emplace(std::min(workers, reps));
  CampaignOptions opts;
  opts.workers = workers;
  opts.traces = &traces;
  opts.pool = pool ? &*pool : nullptr;

  const AlternateAtFailure baseline_policy;
  const SimResult base = engine.run_many(jobs, baseline_policy, reps, seed, opts);

  SimSwitchSolution sol;
  // Same fairness criterion the model solver applies: the k nearest the
  // Delta_LW = Delta_HW crossing, accepted only when the total gain there is
  // material (see core::solve_switch_point).
  double best_gap = std::numeric_limits<double>::infinity();
  SimSwitchCandidate best;
  bool have_candidate = false;
  auto consider = [&](const SimSwitchCandidate& c) {
    sol.sweep.push_back(c);
    const double gap = std::fabs(c.delta_lw - c.delta_hw);
    if (gap < best_gap) {
      best_gap = gap;
      best = c;
      have_candidate = true;
    }
  };

  if (engine.config().restart_cost == 0.0 && engine.config().switch_cost == 0.0) {
    // Free restarts and switches (the paper's model setting): one replayed
    // pass evaluates the whole range, sharing each gap's light-weight prefix
    // across candidates — bit-identical to the per-candidate campaigns.
    const std::vector<SweepUseful> sweep = replay_pair_sweep(
        engine, lw, hw, k_lo, k_hi, reps, traces, workers, opts.pool);
    for (int k = k_lo; k <= k_hi; ++k) {
      const SweepUseful& u = sweep[static_cast<std::size_t>(k - k_lo)];
      consider(candidate_from(k, u.lw, u.hw, base));
    }
  } else {
    for (int k = k_lo; k <= k_hi; ++k) {
      consider(simulate_switch_point(engine, lw, hw, k, base, reps, seed, opts));
    }
  }

  const double materiality = 1e-4 * (base.apps[0].useful + base.apps[1].useful);
  if (have_candidate && best.delta_total > materiality) {
    sol.k = best.k;
    sol.delta_lw = best.delta_lw;
    sol.delta_hw = best.delta_hw;
    sol.delta_total = best.delta_total;
  }
  return sol;
}

std::vector<SweepUseful> replay_pair_sweep(const Engine& engine, const SimJob& lw,
                                           const SimJob& hw, int k_lo, int k_hi,
                                           std::size_t reps, const TraceStore& traces,
                                           std::size_t workers,
                                           common::ThreadPool* pool) {
  SHIRAZ_REQUIRE(k_lo >= 1 && k_hi >= k_lo, "invalid k range");
  SHIRAZ_REQUIRE(reps >= 1, "need at least one repetition");
  SHIRAZ_REQUIRE(
      engine.config().restart_cost == 0.0 && engine.config().switch_cost == 0.0,
      "replay_pair_sweep models free restarts and switches");
  SHIRAZ_REQUIRE(lw.delta > 0.0 && hw.delta > 0.0,
                 "job checkpoint cost must be positive");
  SHIRAZ_REQUIRE(lw.schedule != nullptr && hw.schedule != nullptr,
                 "job needs an interval schedule");
  SHIRAZ_REQUIRE(traces.horizon() >= engine.config().t_total,
                 "trace store horizon does not cover the engine horizon");
  traces.ensure(reps);

  const Seconds horizon = engine.config().t_total;
  const std::size_t n = static_cast<std::size_t>(k_hi - k_lo + 1);
  // Periodic pairs take the flat kernel's sweep (hoisted intervals, cached
  // failure prefix sums — sim/kernel.h) unless the engine opted out of the
  // kernel; both paths perform identical accumulator additions, so the
  // output is the same bits either way. A kernel repetition leaves segment
  // counts (lw then hw, n each), an event-loop repetition useful work.
  const std::optional<Seconds> lw_period = lw.schedule->period();
  const std::optional<Seconds> hw_period = hw.schedule->period();
  const bool flat =
      engine.config().flat_kernel && lw_period.has_value() && hw_period.has_value();
  std::vector<std::size_t> counts(flat ? reps * 2 * n : 0);
  std::vector<std::vector<SweepUseful>> per_rep(flat ? 0 : reps,
                                                std::vector<SweepUseful>(n));
  auto one_rep = [&](std::size_t r) {
    if (flat) {
      const std::span<std::size_t> rep_counts(counts.data() + r * 2 * n, 2 * n);
      flat_pair_sweep_rep(*lw_period, lw.delta, *hw_period, hw.delta, k_lo,
                          horizon, traces.trace(r), rep_counts.first(n),
                          rep_counts.last(n));
    } else {
      sweep_one_rep(lw, hw, k_lo, k_hi, horizon, traces.trace(r), per_rep[r]);
    }
  };
  if ((workers <= 1 && pool == nullptr) || reps == 1) {
    for (std::size_t r = 0; r < reps; ++r) one_rep(r);
  } else {
    common::PoolHandle handle(pool, std::min(workers, reps));
    common::parallel_for_indexed(handle.get(), reps, one_rep);
  }

  // Replay the engine's accumulator additions once for the whole sweep:
  // sum[m] is m sequential `+= tau` from 0.0 — the exact double every
  // candidate with m credited segments ends a repetition at, in every
  // repetition. A multiplication would round differently.
  std::vector<Seconds> lw_sum;
  std::vector<Seconds> hw_sum;
  if (flat) {
    auto iterated_sums = [&](std::size_t offset, Seconds tau) {
      std::size_t max_count = 0;
      for (std::size_t r = 0; r < reps; ++r) {
        const std::size_t* c = counts.data() + r * 2 * n + offset;
        max_count = std::max(max_count, *std::max_element(c, c + n));
      }
      std::vector<Seconds> sum(max_count + 1, 0.0);
      for (std::size_t m = 1; m <= max_count; ++m) sum[m] = sum[m - 1] + tau;
      return sum;
    };
    lw_sum = iterated_sums(0, *lw_period);
    hw_sum = iterated_sums(n, *hw_period);
  }
  auto rep_useful = [&](std::size_t r, std::size_t i) {
    if (!flat) return per_rep[r][i];
    const std::size_t* c = counts.data() + r * 2 * n;
    return SweepUseful{lw_sum[c[i]], hw_sum[c[n + i]]};
  };

  // Merge in repetition order with sim::average's exact accumulation (sum in
  // order, then divide), so the means match run_many's bit for bit.
  std::vector<SweepUseful> mean(n);
  for (std::size_t i = 0; i < n; ++i) mean[i] = rep_useful(0, i);
  const double dn = static_cast<double>(reps);
  for (std::size_t r = 1; r < reps; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      const SweepUseful u = rep_useful(r, i);
      mean[i].lw += u.lw;
      mean[i].hw += u.hw;
    }
  }
  for (SweepUseful& u : mean) {
    u.lw /= dn;
    u.hw /= dn;
  }
  return mean;
}

}  // namespace shiraz::sim
