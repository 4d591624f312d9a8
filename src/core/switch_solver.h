// Optimal switch-point solver (paper Section 3, "Where is optimal point?").
//
// For a light-weight/heavy-weight pair, the light-weight improvement
// Delta_LW(k) grows with k while the heavy-weight improvement Delta_HW(k)
// shrinks, both measured against the switch-at-every-failure baseline. Shiraz
// picks the *fair* switch point: the k where the two improvements are equal
// (and non-negative), splitting the total throughput gain evenly. If no k
// yields a positive gain for both, Shiraz reports "no beneficial switch"
// (k = infinity in the paper's formulation).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/analytical_model.h"

namespace shiraz::core {

/// Improvement of one candidate switch point over the baseline (seconds).
struct SwitchCandidate {
  int k = 0;
  double delta_lw = 0.0;    ///< LW useful-work gain vs baseline
  double delta_hw = 0.0;    ///< HW useful-work gain vs baseline
  double delta_total = 0.0; ///< delta_lw + delta_hw
};

struct SwitchSolution {
  /// The fair optimal switch point; empty when no switch point helps
  /// (the paper's "Shiraz will return k = infinity" case).
  std::optional<int> k;
  /// Improvements at k (seconds of useful work over the campaign).
  double delta_lw = 0.0;
  double delta_hw = 0.0;
  double delta_total = 0.0;
  /// Region of interest: all k with delta_lw >= 0 and delta_hw >= 0 and
  /// delta_total > 0 (paper Fig. 10's shaded band). A keep_sweep output:
  /// empty when the scan found none, and always empty without keep_sweep
  /// (the bracketed search never visits the whole band).
  std::optional<int> region_lo;
  std::optional<int> region_hi;
  /// The full sweep, for benches that plot Delta curves (Figs. 10-12). Empty
  /// without keep_sweep.
  std::vector<SwitchCandidate> sweep;
  /// ShirazModel::shiraz(k) evaluations the solve made, one per distinct k
  /// (the baseline pair, evaluated once per solve, is not counted).
  int model_evaluations = 0;

  bool beneficial() const { return k.has_value(); }
};

struct SolverOptions {
  /// Upper bound of the k domain. The switch time k*segment(LW) rarely needs
  /// to exceed a few MTBFs; the default covers the paper's largest case
  /// (delta-factor 1000 at petascale, k* = 161) with a wide margin.
  int max_k = 4096;
  /// Scan every k and keep the full sweep and the region of interest in the
  /// solution (costs one model evaluation per k; benches plotting the Delta
  /// curves want it). Off, the solver brackets the crossing instead and
  /// returns the same k and deltas, bit for bit, in O(log k*) evaluations.
  bool keep_sweep = true;
};

/// Evaluates the improvement of Shiraz over baseline at a single k.
SwitchCandidate evaluate_switch_point(const ShirazModel& model, const AppSpec& lw,
                                      const AppSpec& hw, int k);

/// The search solve_switch_point runs without keep_sweep, over any candidate
/// sequence on k = 1..last_k with D(k) = delta_lw - delta_hw non-decreasing:
/// steps k = 1, 2, 4, ... (clamped to last_k) until D > 0, bisects to the
/// first such k, and returns what a scan of k = 1..last_k would pick — the
/// first k of minimal |D| — or nothing when D never turns positive. Calls
/// `evaluate` once per distinct k, about 2*log2(k*) times.
std::optional<SwitchCandidate> bracket_fair_crossing(
    int last_k, const std::function<SwitchCandidate(int)>& evaluate);

/// Finds the fair optimal switch point over k = 1..max_k, stopping after the
/// first k whose switch time exceeds 64 MTBFs: with keep_sweep by scanning
/// every k, without it by bracket_fair_crossing over the same domain.
SwitchSolution solve_switch_point(const ShirazModel& model, const AppSpec& lw,
                                  const AppSpec& hw, const SolverOptions& options = {});

}  // namespace shiraz::core
