// Shared memoized switch-point solver cache.
//
// Solving the fair switch point is a pure function of the model signature —
// (MTBF, Weibull shape, epsilon, horizon, OCI formula) plus the pair's
// (delta_LW, delta_HW, HW stretch) — so every consumer that re-solves the
// same signature should pay for it once, whether the signature arrives from
// a 10k-job workload-manager campaign or from a live `shirazctl serve`
// query. SolverCache is that shared memo table: thread-safe, with exact
// hit/miss accounting.
//
// Concurrency contract: the map is guarded by one mutex, but solves run
// outside it — a key's first caller inserts an entry (counted as the miss)
// and racing callers for the same key block on the entry's std::once_flag
// until the solve lands. Hits + misses therefore always equals the number
// of solve() calls, and misses equals the number of distinct keys ever
// requested, under any interleaving (tests/core/solver_cache_test.cpp
// hammers this under TSan). Cached solutions are bit-identical to calling
// core::solve_switch_point directly: the value is computed once by the
// deterministic solver and only ever copied out.
//
// Accounting lives on an obs::MetricsRegistry (shiraz_solver_cache_*
// counters plus an entries gauge) rather than bespoke members, beside
// shiraz_solver_model_evaluations_total, the model evaluations the misses'
// solves made (bumped when a solve lands, outside the map lock): pass a shared
// registry to fold the cache into a process-wide snapshot (the serve daemon
// does), or let the default constructor own a private one — either way the
// Stats contract above is unchanged because the counters are bumped under
// the same map lock the old members were.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>

#include "checkpoint/oci.h"
#include "common/units.h"

namespace shiraz::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace shiraz::obs

namespace shiraz::core {

/// Everything the fair-switch-point solve depends on. Keys compare by exact
/// double equality — the same convention the workload manager's historical
/// per-pair memo used: a catalog-drawn fleet revisits identical bits.
struct SolverCacheKey {
  Seconds mtbf = 0.0;
  double weibull_shape = 0.0;
  double epsilon = 0.0;
  Seconds t_total = 0.0;
  checkpoint::OciFormula oci_formula = checkpoint::OciFormula::kYoung;
  Seconds delta_lw = 0.0;
  Seconds delta_hw = 0.0;
  /// Heavy-weight OCI stretch (1 = plain Shiraz, >= 2 = Shiraz+).
  unsigned hw_stretch = 1;

  friend bool operator<(const SolverCacheKey& a, const SolverCacheKey& b) {
    return std::tie(a.mtbf, a.weibull_shape, a.epsilon, a.t_total,
                    a.oci_formula, a.delta_lw, a.delta_hw, a.hw_stretch) <
           std::tie(b.mtbf, b.weibull_shape, b.epsilon, b.t_total,
                    b.oci_formula, b.delta_lw, b.delta_hw, b.hw_stretch);
  }
  friend bool operator==(const SolverCacheKey&, const SolverCacheKey&) = default;
};

/// The memoized slice of a SwitchSolution: the fair k (empty = the paper's
/// "k = infinity", no beneficial switch) and the modeled gains at it.
struct CachedSolution {
  std::optional<int> k;
  double delta_lw = 0.0;
  double delta_hw = 0.0;
  double delta_total = 0.0;

  bool beneficial() const { return k.has_value(); }
  friend bool operator==(const CachedSolution&, const CachedSolution&) = default;
};

class SolverCache {
 public:
  /// Owns a private MetricsRegistry — per-instance accounting, the
  /// historical behavior.
  SolverCache();

  /// Counts into `metrics` (null falls back to a private registry). Sharing
  /// one registry across caches merges their counters; stats() then reports
  /// the merged totals, so keep one cache per shared registry when the
  /// per-instance exactness contract matters.
  explicit SolverCache(std::shared_ptr<obs::MetricsRegistry> metrics);

  /// Exact concurrency-safe counters: hits + misses == solve() calls and
  /// misses == distinct keys requested, under any thread interleaving.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    std::uint64_t lookups() const { return hits + misses; }
    double hit_ratio() const {
      return lookups() == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(lookups());
    }
  };

  /// The memoized solve. The first caller of a key computes it via
  /// core::solve_switch_point (validating the key's parameters exactly as a
  /// direct ShirazModel construction would — invalid keys throw
  /// InvalidArgument out of that first call); concurrent callers of the
  /// same key wait for that solve instead of duplicating it.
  CachedSolution solve(const SolverCacheKey& key) const;

  Stats stats() const;
  std::size_t size() const;
  void clear() const;

  /// The registry this cache counts into (never null).
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const {
    return metrics_;
  }

 private:
  struct Entry;

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
  obs::Counter* evaluations_ = nullptr;
  mutable std::mutex mu_;
  mutable std::map<SolverCacheKey, std::shared_ptr<Entry>> entries_;
};

}  // namespace shiraz::core
