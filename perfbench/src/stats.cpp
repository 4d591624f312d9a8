#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.h"

namespace perfbench {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  SHIRAZ_REQUIRE(!sorted.empty(), "quantile of an empty sample");
  SHIRAZ_REQUIRE(q > 0.0 && q <= 1.0, "quantile rank must be in (0, 1]");
  const double n = static_cast<double>(sorted.size());
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double median(std::vector<double> samples) {
  SHIRAZ_REQUIRE(!samples.empty(), "median of an empty sample");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

TailSummary summarize_tail(std::vector<double> samples, double q) {
  TailSummary s;
  s.q = q;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = quantile_sorted(samples, 0.5);
  s.tail = quantile_sorted(samples, q);
  s.beyond = static_cast<std::size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), s.tail));
  return s;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
