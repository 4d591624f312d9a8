// Bathtub-hazard inter-arrival distribution (additive Weibull).
//
// The paper's Weibull model has a monotone hazard; real components show the
// classic bathtub: infant mortality right after a repair, a flat useful-life
// floor, then wear-out. The additive-Weibull form (Xie & Lai 1996) captures
// all three with one closed-form survival function:
//
//   H(t) = (t / s1)^b1 + (t / s2)^b2,   b1 < 1 < b2
//   S(t) = exp(-H(t)),  h(t) = b1/s1 (t/s1)^{b1-1} + b2/s2 (t/s2)^{b2-1}
//
// The b1 term dominates early (decreasing hazard), the b2 term late
// (increasing hazard), so h is non-monotone with an interior minimum — the
// shape the scenario catalog's hazard-sanity tests pin. As a renewal
// process this models a machine whose repair resets the bathtub each gap.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "reliability/distribution.h"

namespace shiraz::reliability {

class BathtubWeibull final : public Distribution {
 public:
  /// `infant_shape` (b1) must be in (0, 1); `wear_shape` (b2) must exceed 1;
  /// both scales positive. Violations throw InvalidArgument.
  BathtubWeibull(double infant_shape, Seconds infant_scale, double wear_shape,
                 Seconds wear_scale);

  double infant_shape() const { return b1_; }
  Seconds infant_scale() const { return s1_; }
  double wear_shape() const { return b2_; }
  Seconds wear_scale() const { return s2_; }

  Seconds sample(Rng& rng) const override;
  double cdf(Seconds t) const override;
  double pdf(Seconds t) const override;
  /// Numeric (fixed-scheme Simpson) integral of S(t), ~2.7 ms; computed on
  /// the first call (thread-safe) and shared with every clone, so repeated
  /// calls are cheap and bit-stable, and objects nobody asks never pay it.
  Seconds mean() const override;
  /// Inverts H(t) = -log1p(-u) by safeguarded Newton iteration; the scheme is
  /// a pure function of `u`, so equal inputs give bit-equal outputs — the
  /// property sample()/sample_gaps bit-identity rests on.
  Seconds quantile(double u) const override;
  std::string name() const override;
  DistributionPtr clone() const override;

  /// Batched draw: one quantile inversion per gap, exactly the draws the
  /// equivalent sample() loop performs.
  void sample_gaps(Rng& rng, Seconds horizon,
                   std::vector<Seconds>& out) const override;

 private:
  /// Cumulative hazard H(t).
  double cumulative_hazard(Seconds t) const;

  /// The mean once integrated. Clones share it: their parameters are equal.
  struct LazyMean {
    std::once_flag once;
    Seconds value = 0.0;
  };

  double b1_;
  Seconds s1_;
  double b2_;
  Seconds s2_;
  std::shared_ptr<LazyMean> mean_ = std::make_shared<LazyMean>();
};

}  // namespace shiraz::reliability
