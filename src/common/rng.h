// Deterministic random number generation.
//
// Every stochastic component in the library (failure processes, Monte-Carlo
// campaigns, random pairing) draws from an explicitly seeded `Rng`. Benches and
// tests print or fix their seeds, so every reported number is reproducible.
#pragma once

#include <cstdint>
#include <optional>
#include <random>

namespace shiraz {

/// SplitMix64: tiny, high-quality seed expander (Steele et al., used to derive
/// independent sub-stream seeds from one master seed).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Seeded Mersenne-Twister wrapper with convenience draws.
///
/// `Rng` is cheap to fork: `fork(i)` derives an independent stream for
/// sub-component `i`, so parallel or repeated experiments never share state.
/// The engine is seeded on the first draw, not at construction: fork() reads
/// only the seed, and a campaign creates per-repetition generators that a
/// replay never draws from, so seeding them (312 dependent steps each) would
/// be pure waste. The first draw sees the engine that construction would
/// have built, so the streams are the same.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  /// Derives an independent generator for sub-stream `stream`.
  Rng fork(std::uint64_t stream) const {
    SplitMix64 mixer(seed_ ^ (0xa5a5a5a5a5a5a5a5ULL + stream * 0x9e3779b97f4a7c15ULL));
    return Rng(mixer.next());
  }

  /// Uniform double in [0, 1).
  double uniform() { return std::generate_canonical<double, 53>(engine()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine());
  }

  /// Standard normal draw.
  double normal() {
    std::normal_distribution<double> d(0.0, 1.0);
    return d(engine());
  }

  std::mt19937_64& engine() {
    if (!engine_) engine_.emplace(SplitMix64(seed_).next());
    return *engine_;
  }

 private:
  std::uint64_t seed_;
  std::optional<std::mt19937_64> engine_;  // empty until the first draw
};

}  // namespace shiraz
