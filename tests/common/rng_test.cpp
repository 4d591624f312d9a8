#include "common/rng.h"

#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace shiraz {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10'000; ++i) seen.insert(rng.uniform_int(1, 6));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 1);
  EXPECT_EQ(*seen.rbegin(), 6);
}

TEST(Rng, UniformMeanIsOneHalf) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsAreStandard) {
  Rng rng(17);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, ForksAreIndependentAndReproducible) {
  Rng master(99);
  Rng f0 = master.fork(0);
  Rng f1 = master.fork(1);
  EXPECT_NE(f0.uniform(), f1.uniform());

  // Forking again yields identical sub-streams.
  Rng g0 = master.fork(0);
  Rng h0 = Rng(99).fork(0);
  EXPECT_DOUBLE_EQ(g0.uniform(), h0.uniform());
}

TEST(Rng, ForkDoesNotPerturbParent) {
  Rng a(5);
  Rng b(5);
  (void)a.fork(3);
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

// The engine is seeded on the first draw. Every stream must still be the one
// an engine seeded at construction gives: mt19937_64 seeded with the first
// SplitMix64 output of the seed, for a copy taken before any draw and for
// forks taken before and after draws alike.
TEST(Rng, FirstDrawSeedingKeepsEveryStream) {
  auto eager = [](std::uint64_t seed) {
    return std::mt19937_64(SplitMix64(seed).next());
  };
  constexpr int kDraws = 700;  // past the engine's 312-word state twice
  Rng rng(2018);
  const Rng copy_before = rng;
  const Rng fork_before = rng.fork(7);

  std::mt19937_64 want = eager(2018);
  for (int i = 0; i < kDraws; ++i) ASSERT_EQ(rng.engine()(), want()) << "draw " << i;
  const Rng copy_after = rng;  // mid-stream: carries the engine state along
  const Rng fork_after = rng.fork(7);

  Rng copy = copy_before;
  std::mt19937_64 from_start = eager(2018);
  for (int i = 0; i < kDraws; ++i) ASSERT_EQ(copy.engine()(), from_start()) << "draw " << i;
  Rng resumed = copy_after;
  for (int i = 0; i < kDraws; ++i) ASSERT_EQ(resumed.engine()(), want()) << "draw " << i;

  Rng early = fork_before;
  Rng late = fork_after;
  EXPECT_EQ(early.seed(), late.seed());
  std::mt19937_64 forked = eager(early.seed());
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t expected = forked();
    ASSERT_EQ(early.engine()(), expected) << "draw " << i;
    ASSERT_EQ(late.engine()(), expected) << "draw " << i;
  }

  // The convenience draws read the same engine: uniform() is the canonical
  // double of the eager engine's stream.
  Rng draws(99);
  std::mt19937_64 reference = eager(99);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(draws.uniform(), (std::generate_canonical<double, 53>(reference)));
  }
}

TEST(Rng, SeedAccessorReturnsConstructorValue) {
  EXPECT_EQ(Rng(12345).seed(), 12345u);
}

// Regression for the parallel campaign layer: repetition r draws from
// fork(r), so adjacent fork indices must yield streams whose prefixes never
// collide — a raw-engine collision would mean two "independent" repetitions
// partially replay each other's failure history.
TEST(Rng, AdjacentForkStreamsShareNoPrefixValues) {
  const Rng master(20182018);
  constexpr std::uint64_t kStreams = 9;
  constexpr int kPrefix = 16;
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < kStreams; ++s) {
    Rng fork = master.fork(s);
    for (int i = 0; i < kPrefix; ++i) seen.insert(fork.engine()());
  }
  EXPECT_EQ(seen.size(), kStreams * kPrefix);
}

}  // namespace
}  // namespace shiraz
