// SolverCache: memoized switch-point solutions shared between the workload
// manager and the serve daemon. The contracts under test:
//   - a cached solution is bit-identical to a direct solve_switch_point call
//   - hit/miss counters are EXACT: hits + misses == solve() calls and
//     misses == distinct keys, under any interleaving (the Hammer suite runs
//     under TSan in CI — see the -R filter in ci.yml)
#include "core/solver_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/units.h"
#include "core/switch_solver.h"
#include "obs/metrics.h"

namespace shiraz::core {
namespace {

SolverCacheKey key_for(double delta_lw, double delta_hw, unsigned stretch = 1) {
  SolverCacheKey key;
  key.mtbf = hours(5.0);
  key.weibull_shape = 0.6;
  key.epsilon = 0.45;
  key.t_total = hours(1000.0);
  key.oci_formula = checkpoint::OciFormula::kYoung;
  key.delta_lw = delta_lw;
  key.delta_hw = delta_hw;
  key.hw_stretch = stretch;
  return key;
}

SwitchSolution direct_solve(const SolverCacheKey& key) {
  ModelConfig cfg;
  cfg.mtbf = key.mtbf;
  cfg.weibull_shape = key.weibull_shape;
  cfg.epsilon = key.epsilon;
  cfg.t_total = key.t_total;
  cfg.oci_formula = key.oci_formula;
  const ShirazModel model(cfg);
  SolverOptions opts;
  opts.keep_sweep = false;
  return solve_switch_point(model, AppSpec{"lw", key.delta_lw, 1},
                            AppSpec{"hw", key.delta_hw, key.hw_stretch}, opts);
}

TEST(SolverCacheTest, MatchesDirectSolveBitForBit) {
  SolverCache cache;
  for (const double delta_hw : {600.0, 1800.0, 7200.0}) {
    const SolverCacheKey key = key_for(18.0, delta_hw);
    const CachedSolution cached = cache.solve(key);
    const SwitchSolution direct = direct_solve(key);
    ASSERT_EQ(cached.k.has_value(), direct.k.has_value());
    if (direct.k) EXPECT_EQ(*cached.k, *direct.k);
    EXPECT_EQ(cached.delta_lw, direct.delta_lw);
    EXPECT_EQ(cached.delta_hw, direct.delta_hw);
    EXPECT_EQ(cached.delta_total, direct.delta_total);
  }
}

TEST(SolverCacheTest, ExactHitMissAccounting) {
  SolverCache cache;
  EXPECT_EQ(cache.stats().lookups(), 0u);
  EXPECT_EQ(cache.size(), 0u);

  cache.solve(key_for(18.0, 1800.0));   // miss
  cache.solve(key_for(18.0, 1800.0));   // hit
  cache.solve(key_for(72.0, 1800.0));   // miss
  cache.solve(key_for(18.0, 1800.0));   // hit
  cache.solve(key_for(18.0, 1800.0, 2));  // stretch is part of the key: miss

  const SolverCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.lookups(), 5u);
  EXPECT_DOUBLE_EQ(s.hit_ratio(), 2.0 / 5.0);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(SolverCacheTest, RepeatedSolvesReturnIdenticalSolutions) {
  SolverCache cache;
  const CachedSolution first = cache.solve(key_for(18.0, 1800.0));
  const CachedSolution again = cache.solve(key_for(18.0, 1800.0));
  ASSERT_TRUE(first.k.has_value());
  EXPECT_EQ(*first.k, *again.k);
  EXPECT_EQ(first.delta_lw, again.delta_lw);
  EXPECT_EQ(first.delta_hw, again.delta_hw);
  EXPECT_EQ(first.delta_total, again.delta_total);
}

TEST(SolverCacheTest, ClearResetsEntriesAndStats) {
  SolverCache cache;
  cache.solve(key_for(18.0, 1800.0));
  cache.solve(key_for(18.0, 1800.0));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().lookups(), 0u);
  cache.solve(key_for(18.0, 1800.0));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SolverCacheTest, SharedRegistryFoldsCountersIntoTheSnapshot) {
  // A cache built on a shared registry publishes its accounting there —
  // same exact Stats contract, but visible in a process-wide snapshot.
  auto registry = std::make_shared<obs::MetricsRegistry>();
  SolverCache cache(registry);
  EXPECT_EQ(cache.metrics().get(), registry.get());

  cache.solve(key_for(18.0, 1800.0));  // miss
  cache.solve(key_for(18.0, 1800.0));  // hit
  EXPECT_EQ(registry->counter("shiraz_solver_cache_misses_total").value(), 1u);
  EXPECT_EQ(registry->counter("shiraz_solver_cache_hits_total").value(), 1u);
  EXPECT_EQ(registry->gauge("shiraz_solver_cache_entries").value(), 1.0);
  // Only the miss solved: its model evaluations, exactly as a direct solve
  // counts them.
  EXPECT_EQ(registry->counter("shiraz_solver_model_evaluations_total").value(),
            static_cast<std::uint64_t>(
                direct_solve(key_for(18.0, 1800.0)).model_evaluations));

  const SolverCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);

  cache.clear();
  EXPECT_EQ(registry->counter("shiraz_solver_cache_misses_total").value(), 0u);
  EXPECT_EQ(registry->counter("shiraz_solver_model_evaluations_total").value(),
            0u);
  EXPECT_EQ(registry->gauge("shiraz_solver_cache_entries").value(), 0.0);
}

TEST(SolverCacheTest, NoBeneficialPairCachesEmptyK) {
  SolverCache cache;
  // Equal deltas: no switch point helps; the cache must store that verdict
  // rather than re-solving.
  const CachedSolution sol = cache.solve(key_for(1800.0, 1800.0));
  EXPECT_FALSE(sol.beneficial());
  cache.solve(key_for(1800.0, 1800.0));
  EXPECT_EQ(cache.stats().hits, 1u);
}

// TSan-covered hammer: N threads pound a small key set concurrently. The
// counters must come out exact — not approximately — because a miss is
// "this call inserted the entry" under the map lock, never a data race.
TEST(SolverCacheHammer, ConcurrentSolvesKeepExactCountersAndIdenticalResults) {
  SolverCache cache;
  const std::vector<SolverCacheKey> keys = {
      key_for(18.0, 1800.0), key_for(72.0, 1800.0),  key_for(18.0, 7200.0),
      key_for(6.0, 600.0),   key_for(36.0, 3600.0),
  };
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kCallsPerThread = 40;

  std::vector<std::vector<CachedSolution>> seen(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        seen[t].reserve(kCallsPerThread);
        for (std::size_t i = 0; i < kCallsPerThread; ++i) {
          seen[t].push_back(cache.solve(keys[(t + i) % keys.size()]));
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }

  const SolverCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, keys.size());
  EXPECT_EQ(s.lookups(), kThreads * kCallsPerThread);
  EXPECT_EQ(s.hits, kThreads * kCallsPerThread - keys.size());
  EXPECT_EQ(cache.size(), keys.size());

  // Every thread observed the same solution per key, and it is the direct
  // solver's solution bit for bit.
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kCallsPerThread; ++i) {
      const SolverCacheKey& key = keys[(t + i) % keys.size()];
      const SwitchSolution direct = direct_solve(key);
      const CachedSolution& got = seen[t][i];
      ASSERT_EQ(got.k.has_value(), direct.k.has_value());
      if (direct.k) ASSERT_EQ(*got.k, *direct.k);
      ASSERT_EQ(got.delta_lw, direct.delta_lw);
      ASSERT_EQ(got.delta_hw, direct.delta_hw);
      ASSERT_EQ(got.delta_total, direct.delta_total);
    }
  }
}

}  // namespace
}  // namespace shiraz::core
