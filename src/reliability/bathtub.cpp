#include "reliability/bathtub.h"

#include <cmath>
#include <sstream>

#include "common/error.h"

namespace shiraz::reliability {

namespace {

/// Mean of the distribution: integral of S(t) over [0, inf). Simpson's rule
/// with a fixed node count over [0, T] where S(T) < 1e-14; the scheme is
/// deterministic so mean() is bit-stable across processes.
Seconds integrate_mean(const BathtubWeibull& d) {
  // S(t) <= exp(-(t/s2)^b2): pick T where the wear-out term alone kills the
  // survival mass (H >= 32 means S <= 1.3e-14).
  const Seconds tail = d.wear_scale() * std::pow(32.0, 1.0 / d.wear_shape());
  const int steps = 40'000;  // even, for Simpson
  const double h = tail / steps;
  double acc = 1.0;  // S(0) = 1
  for (int i = 1; i < steps; ++i) {
    const double w = (i % 2 == 1) ? 4.0 : 2.0;
    acc += w * (1.0 - d.cdf(i * h));
  }
  acc += 1.0 - d.cdf(tail);
  return acc * h / 3.0;
}

}  // namespace

BathtubWeibull::BathtubWeibull(double infant_shape, Seconds infant_scale,
                               double wear_shape, Seconds wear_scale)
    : b1_(infant_shape), s1_(infant_scale), b2_(wear_shape), s2_(wear_scale) {
  SHIRAZ_REQUIRE(b1_ > 0.0 && b1_ < 1.0,
                 "bathtub infant shape must be in (0, 1) for a decreasing arm");
  SHIRAZ_REQUIRE(b2_ > 1.0, "bathtub wear shape must exceed 1 for an increasing arm");
  SHIRAZ_REQUIRE(s1_ > 0.0, "bathtub infant scale must be positive");
  SHIRAZ_REQUIRE(s2_ > 0.0, "bathtub wear scale must be positive");
}

double BathtubWeibull::cumulative_hazard(Seconds t) const {
  return std::pow(t / s1_, b1_) + std::pow(t / s2_, b2_);
}

Seconds BathtubWeibull::sample(Rng& rng) const { return quantile(rng.uniform()); }

double BathtubWeibull::cdf(Seconds t) const {
  if (t <= 0.0) return 0.0;
  return 1.0 - std::exp(-cumulative_hazard(t));
}

double BathtubWeibull::pdf(Seconds t) const {
  if (t <= 0.0) return 0.0;
  const double h = b1_ / s1_ * std::pow(t / s1_, b1_ - 1.0) +
                   b2_ / s2_ * std::pow(t / s2_, b2_ - 1.0);
  return h * std::exp(-cumulative_hazard(t));
}

Seconds BathtubWeibull::mean() const {
  std::call_once(mean_->once, [this] { mean_->value = integrate_mean(*this); });
  return mean_->value;
}

Seconds BathtubWeibull::quantile(double u) const {
  SHIRAZ_REQUIRE(u >= 0.0 && u < 1.0, "quantile u must be in [0,1)");
  if (u == 0.0) return 0.0;
  const double target = -std::log1p(-u);  // solve H(t) = target, H monotone
  // Bracket: each arm alone reaching `target` bounds t from above.
  double hi = std::min(s1_ * std::pow(target, 1.0 / b1_),
                       s2_ * std::pow(target, 1.0 / b2_));
  double lo = 0.0;
  if (cumulative_hazard(hi) < target) {  // numeric safety; expand once
    lo = hi;
    hi *= 2.0;
  }
  // Safeguarded Newton: h(t) = H'(t) > 0, fall back to bisection when the
  // step leaves the bracket. Fixed 80-iteration cap; converges in ~10.
  double t = 0.5 * (lo + hi);
  for (int i = 0; i < 80; ++i) {
    const double f = cumulative_hazard(t) - target;
    if (f > 0.0) hi = t;
    else lo = t;
    const double deriv = b1_ / s1_ * std::pow(t / s1_, b1_ - 1.0) +
                         b2_ / s2_ * std::pow(t / s2_, b2_ - 1.0);
    double next = t - f / deriv;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (next == t) break;
    t = next;
  }
  return t;
}

std::string BathtubWeibull::name() const {
  std::ostringstream os;
  os << "BathtubWeibull(b1=" << b1_ << ", s1=" << as_hours(s1_) << "h, b2=" << b2_
     << ", s2=" << as_hours(s2_) << "h)";
  return os.str();
}

DistributionPtr BathtubWeibull::clone() const {
  return std::make_unique<BathtubWeibull>(*this);
}

void BathtubWeibull::sample_gaps(Rng& rng, Seconds horizon,
                                 std::vector<Seconds>& out) const {
  Seconds t = 0.0;
  while (t < horizon) {
    const Seconds gap = quantile(rng.uniform());
    out.push_back(gap);
    t += gap;
  }
}

}  // namespace shiraz::reliability
