#include "core/solver_cache.h"

#include "core/switch_solver.h"
#include "obs/metrics.h"

namespace shiraz::core {

struct SolverCache::Entry {
  std::once_flag once;
  CachedSolution solution;
};

SolverCache::SolverCache() : SolverCache(nullptr) {}

SolverCache::SolverCache(std::shared_ptr<obs::MetricsRegistry> metrics)
    : metrics_(metrics != nullptr ? std::move(metrics)
                                  : std::make_shared<obs::MetricsRegistry>()) {
  hits_ = &metrics_->counter("shiraz_solver_cache_hits_total",
                             "switch-point solves served from the memo table");
  misses_ = &metrics_->counter("shiraz_solver_cache_misses_total",
                               "switch-point solves computed fresh");
  entries_gauge_ = &metrics_->gauge("shiraz_solver_cache_entries",
                                    "distinct signatures memoized");
  evaluations_ = &metrics_->counter(
      "shiraz_solver_model_evaluations_total",
      "analytical model evaluations (one switch point each) made by misses");
}

CachedSolution SolverCache::solve(const SolverCacheKey& key) const {
  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = entries_.try_emplace(key);
    if (inserted) {
      it->second = std::make_shared<Entry>();
      misses_->add(1);
      entries_gauge_->set(static_cast<double>(entries_.size()));
    } else {
      hits_->add(1);
    }
    entry = it->second;
  }
  // The solve runs outside the map lock so distinct keys solve concurrently;
  // call_once serializes same-key callers onto one computation. A throwing
  // solve (invalid parameters) propagates to the caller and leaves the flag
  // unset, so every caller of a bad key gets the exception.
  std::call_once(entry->once, [&] {
    ModelConfig mcfg;
    mcfg.mtbf = key.mtbf;
    mcfg.weibull_shape = key.weibull_shape;
    mcfg.epsilon = key.epsilon;
    mcfg.t_total = key.t_total;
    mcfg.oci_formula = key.oci_formula;
    const ShirazModel model(mcfg);
    SolverOptions opts;
    opts.keep_sweep = false;
    const SwitchSolution sol =
        solve_switch_point(model, AppSpec{"lw", key.delta_lw, 1},
                           AppSpec{"hw", key.delta_hw, key.hw_stretch}, opts);
    entry->solution =
        CachedSolution{sol.k, sol.delta_lw, sol.delta_hw, sol.delta_total};
    evaluations_->add(static_cast<std::uint64_t>(sol.model_evaluations));
  });
  return entry->solution;
}

SolverCache::Stats SolverCache::stats() const {
  // The counters are only ever bumped under mu_ (see solve()), so holding it
  // here keeps hits/misses mutually consistent — the historical contract.
  const std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_->value(), misses_->value()};
}

std::size_t SolverCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void SolverCache::clear() const {
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  hits_->reset();
  misses_->reset();
  evaluations_->reset();
  entries_gauge_->set(0.0);
}

}  // namespace shiraz::core
