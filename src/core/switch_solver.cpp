#include "core/switch_solver.h"

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"

namespace shiraz::core {

namespace {

// |Delta_LW - Delta_HW|: the fair point minimizes it.
double fairness_gap(const SwitchCandidate& c) {
  return std::fabs(c.delta_lw - c.delta_hw);
}

// Delta_LW - Delta_HW > 0: k lies past the fair crossing.
bool past_crossing(const SwitchCandidate& c) { return c.delta_lw - c.delta_hw > 0.0; }

}  // namespace

SwitchCandidate evaluate_switch_point(const ShirazModel& model, const AppSpec& lw,
                                      const AppSpec& hw, int k) {
  const PairOutcome base = model.baseline_pair(lw, hw);
  const PairOutcome sz = model.shiraz(lw, hw, k);
  SwitchCandidate c;
  c.k = k;
  c.delta_lw = sz.lw.useful - base.lw.useful;
  c.delta_hw = sz.hw.useful - base.hw.useful;
  c.delta_total = c.delta_lw + c.delta_hw;
  return c;
}

std::optional<SwitchCandidate> bracket_fair_crossing(
    int last_k, const std::function<SwitchCandidate(int)>& evaluate) {
  SHIRAZ_REQUIRE(last_k >= 1, "the k domain must hold at least k = 1");
  // Exact because D = delta_lw - delta_hw is monotone: before the crossing
  // D <= 0, so |D| is non-increasing there and its first minimum is the
  // first k sharing |D| with the last k before the crossing; past the
  // crossing |D| = D only grows. The tie walk at the end can revisit a k
  // the search already evaluated, so each k is evaluated once.
  std::vector<SwitchCandidate> seen;
  auto at = [&](int k) {
    for (const SwitchCandidate& c : seen) {
      if (c.k == k) return c;
    }
    seen.push_back(evaluate(k));
    return seen.back();
  };
  // Bracket the crossing with k = 1, 2, 4, ... clamped to the domain:
  // D(lo) <= 0 (lo = 0 before any k) and D(hi) > 0.
  int lo = 0;
  int hi = 0;
  for (int k = 1;; k = k > last_k / 2 ? last_k : 2 * k) {
    if (past_crossing(at(k))) {
      hi = k;
      break;
    }
    lo = k;
    if (k == last_k) return std::nullopt;
  }
  // Bisect to the first k past the crossing.
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    (past_crossing(at(mid)) ? hi : lo) = mid;
  }
  // The scan replaces its best only on a strictly smaller gap, so the
  // crossing k loses ties to the k before it, and that one to the first k
  // of its run of equal gaps.
  SwitchCandidate best = at(hi);
  if (lo >= 1 && !(fairness_gap(best) < fairness_gap(at(lo)))) {
    best = at(lo);
    for (int k = lo - 1; k >= 1; --k) {
      const SwitchCandidate c = at(k);
      if (fairness_gap(c) != fairness_gap(best)) break;
      best = c;
    }
  }
  return best;
}

SwitchSolution solve_switch_point(const ShirazModel& model, const AppSpec& lw,
                                  const AppSpec& hw, const SolverOptions& options) {
  SHIRAZ_REQUIRE(options.max_k >= 1, "max_k must be at least 1");
  const PairOutcome base = model.baseline_pair(lw, hw);

  SwitchSolution sol;
  auto evaluate = [&](int k) {
    const PairOutcome sz = model.shiraz(lw, hw, k);
    ++sol.model_evaluations;
    SwitchCandidate c;
    c.k = k;
    c.delta_lw = sz.lw.useful - base.lw.useful;
    c.delta_hw = sz.hw.useful - base.hw.useful;
    c.delta_total = c.delta_lw + c.delta_hw;
    return c;
  };

  // Delta_LW(k) is non-decreasing and Delta_HW(k) non-increasing, so their
  // difference D(k) crosses zero exactly once. The fair switch point is the
  // integer k nearest that crossing (the paper solves the continuous equality
  // Delta_LW = Delta_HW numerically and k is integral); at that k one app can
  // sit a hair below zero when the crossing falls between integers. Both
  // paths search k = 1..max_k, stopping after the first k whose LW switch
  // time is so deep in the Weibull tail that nothing changes anymore, and
  // both pick the first k of minimal |D|: the scan by visiting every k, the
  // search by bracketing the crossing. Every candidate comes from the same
  // evaluate(k) call, so both return the same bits.
  const double tail_time_limit = 64.0 * model.config().mtbf;
  SwitchCandidate best;
  bool crossed = false;  // D turned positive in the domain
  if (options.keep_sweep) {
    // The full scan: every k of the domain, for the Delta curves and the
    // region of interest.
    double best_gap = std::numeric_limits<double>::infinity();
    for (int k = 1; k <= options.max_k; ++k) {
      const SwitchCandidate c = evaluate(k);
      sol.sweep.push_back(c);
      if (c.delta_lw >= 0.0 && c.delta_hw >= 0.0 && c.delta_total > 0.0) {
        if (!sol.region_lo) sol.region_lo = k;
        sol.region_hi = k;
      }
      const double gap = fairness_gap(c);
      if (gap < best_gap) {
        best_gap = gap;
        best = c;
      }
      if (past_crossing(c)) crossed = true;
      if (model.switch_time(lw, k) > tail_time_limit) break;
    }
  } else {
    // The domain ends where the scan stops. k * segment(lw) is monotone in
    // k, so that k is bisected without a model evaluation.
    int last_k = options.max_k;
    if (model.switch_time(lw, last_k) > tail_time_limit) {
      int below = 0;  // switch_time(lw, 0) = 0 never passes the limit
      while (last_k - below > 1) {
        const int mid = below + (last_k - below) / 2;
        (model.switch_time(lw, mid) > tail_time_limit ? last_k : below) = mid;
      }
    }
    if (const std::optional<SwitchCandidate> c =
            bracket_fair_crossing(last_k, evaluate)) {
      best = *c;
      crossed = true;
    }
  }

  // "Shiraz will return k = infinity if no system throughput improvement can
  // be achieved" — no crossing found, or no *material* gain to split at the
  // crossing (identical apps produce a numerically-zero delta that must not
  // count as a benefit).
  const double materiality =
      1e-4 * (base.lw.useful + base.hw.useful);
  if (crossed && best.delta_total > materiality) {
    sol.k = best.k;
    sol.delta_lw = best.delta_lw;
    sol.delta_hw = best.delta_hw;
    sol.delta_total = best.delta_total;
  }
  return sol;
}

}  // namespace shiraz::core
