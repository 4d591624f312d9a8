// The bracketed fair-crossing search (solve_switch_point without keep_sweep)
// against its oracle, the full scan (keep_sweep): both must return the same
// k and the same delta bits, because every candidate the search visits comes
// from the same model evaluation the scan makes at that k.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/catalog.h"
#include "common/error.h"
#include "common/units.h"
#include "core/switch_solver.h"
#include "sched/arrivals.h"

namespace shiraz::core {
namespace {

struct Case {
  ModelConfig config;
  AppSpec lw;
  AppSpec hw;
  int max_k = SolverOptions{}.max_k;
};

std::string describe(const Case& c) {
  std::ostringstream os;
  os << "MTBF " << as_hours(c.config.mtbf) << " h, beta "
     << c.config.weibull_shape << ", T " << as_hours(c.config.t_total)
     << " h, delta " << c.lw.delta << "/" << c.hw.delta << " s, stretch "
     << c.hw.stretch << ", max_k " << c.max_k;
  return os.str();
}

struct Solved {
  SwitchSolution scan;
  SwitchSolution search;
};

// Solves `c` both ways and expects identical bit patterns.
Solved expect_search_matches_scan(const Case& c) {
  const ShirazModel model(c.config);
  SolverOptions options;
  options.max_k = c.max_k;
  options.keep_sweep = true;
  Solved s{solve_switch_point(model, c.lw, c.hw, options), {}};
  options.keep_sweep = false;
  s.search = solve_switch_point(model, c.lw, c.hw, options);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(s.search.k, s.scan.k) << describe(c);
  EXPECT_EQ(bits(s.search.delta_lw), bits(s.scan.delta_lw)) << describe(c);
  EXPECT_EQ(bits(s.search.delta_hw), bits(s.scan.delta_hw)) << describe(c);
  EXPECT_EQ(bits(s.search.delta_total), bits(s.scan.delta_total)) << describe(c);
  EXPECT_LE(s.search.model_evaluations, s.scan.model_evaluations) << describe(c);
  return s;
}

ModelConfig model_config(double mtbf_hours, double beta, double t_total_hours) {
  ModelConfig cfg;
  cfg.mtbf = hours(mtbf_hours);
  cfg.weibull_shape = beta;
  cfg.t_total = hours(t_total_hours);
  return cfg;
}

// Light/heavy checkpoint costs (seconds): every pair of distinct Table 1 and
// fleet-catalog costs, plus the serve-mix signatures, including the
// fractional never-seen delta_HW values its cache misses carry.
std::vector<std::pair<double, double>> grid_pairs() {
  std::set<double> costs;
  for (const apps::AppProfile& a : apps::table1_catalog()) {
    costs.insert(a.checkpoint_cost);
  }
  for (const sched::JobClass& c : sched::fleet_catalog()) {
    costs.insert(c.checkpoint_cost);
  }
  std::set<std::pair<double, double>> pairs;
  for (auto lo = costs.begin(); lo != costs.end(); ++lo) {
    for (auto hi = std::next(lo); hi != costs.end(); ++hi) pairs.insert({*lo, *hi});
  }
  pairs.insert({{18.0, 1800.0}, {72.0, 1800.0}, {18.0, 7200.0}, {72.0, 7200.0},
                {6.0, 600.0}, {36.0, 3600.0}, {18.0, 1800.25}, {18.0, 1800.731}});
  return {pairs.begin(), pairs.end()};
}

// -----------------------------------------------------------------------
// The grid: every pair at each (MTBF, beta), rotating the horizon and the
// heavy-weight stretch through the pairs. The comparison holds for any
// max_k; 256 bounds the oracle's full scans (one model evaluation per k)
// while still holding k* for nearly every cell, and the cells whose k*
// lies beyond it check the max_k-below-k* rule.
// -----------------------------------------------------------------------

struct GridCell {
  double mtbf_hours;
  double beta;
};

class SwitchSearchOracle : public ::testing::TestWithParam<GridCell> {};

TEST_P(SwitchSearchOracle, GridMatchesTheScanBitForBit) {
  const auto [mtbf_hours, beta] = GetParam();
  const double horizons_hours[] = {100.0, 1000.0, 5000.0};
  const unsigned stretches[] = {1, 3};
  const std::vector<std::pair<double, double>> pairs = grid_pairs();
  ASSERT_EQ(pairs.size(), 44u);
  // Memoryless failures (beta = 1) leave Shiraz less to exploit, but every
  // cell still holds beneficial pairs.
  int beneficial = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    Case c;
    c.config = model_config(mtbf_hours, beta, horizons_hours[i % 3]);
    c.lw = {"lw", pairs[i].first, 1};
    c.hw = {"hw", pairs[i].second, stretches[(i / 3) % 2]};
    c.max_k = 256;
    const Solved s = expect_search_matches_scan(c);
    if (s.scan.beneficial()) ++beneficial;
  }
  EXPECT_GT(beneficial, 0);
}

INSTANTIATE_TEST_SUITE_P(
    MtbfBeta, SwitchSearchOracle,
    ::testing::Values(GridCell{1.0, 0.5}, GridCell{5.0, 0.5}, GridCell{20.0, 0.5},
                      GridCell{1.0, 0.75}, GridCell{5.0, 0.75},
                      GridCell{20.0, 0.75}, GridCell{100.0, 0.75},
                      GridCell{1.0, 1.0}, GridCell{5.0, 1.0}, GridCell{20.0, 1.0},
                      GridCell{100.0, 1.0}),
    [](const ::testing::TestParamInfo<GridCell>& cell) {
      return "Mtbf" + std::to_string(static_cast<int>(cell.param.mtbf_hours)) +
             "hBeta" + std::to_string(static_cast<int>(cell.param.beta * 100.0));
    });

// -----------------------------------------------------------------------
// Named edge cases, on the default domain unless they name max_k.
// -----------------------------------------------------------------------

Case paper_point() {
  return {model_config(5.0, 0.6, 1000.0), {"lw", 18.0, 1}, {"hw", 1800.0, 1}};
}

TEST(SwitchSearch, PaperPointModelEvaluations) {
  // MTBF 5 h, delta 18/1800 s: the scan visits k = 1..1400 (k = 1400 is the
  // first switch time past 64 MTBFs); the search visits k = 1, 2, 4, 8, 16,
  // 32, then bisects through 24, 28, 26, 25.
  const Solved s = expect_search_matches_scan(paper_point());
  ASSERT_EQ(s.search.k, std::optional<int>(26));
  EXPECT_EQ(s.scan.model_evaluations, 1400);
  EXPECT_EQ(s.search.model_evaluations, 10);
}

TEST(SwitchSearch, CrossingPastTheTailLimitIsNotBeneficial) {
  // Weibull beta = 0.15 puts most of the MTBF in gaps longer than 64 MTBFs,
  // so Delta_LW - Delta_HW turns positive only past the tail limit. The
  // light-weight segment is ~10 MTBFs, so the domain ends at k = 7 and the
  // doubling step from k = 4 (to 8) overshoots it: a search that did not
  // clamp would find the crossing between 16 and 32 and call it beneficial.
  Case c;
  c.config = model_config(1.0, 0.15, 1000.0);
  c.lw = {"lw", hours(6.5), 1};
  c.hw = {"hw", hours(50.0), 1};
  const ShirazModel model(c.config);
  const double tail_limit = 64.0 * c.config.mtbf;
  ASSERT_LE(model.switch_time(c.lw, 6), tail_limit);
  ASSERT_GT(model.switch_time(c.lw, 7), tail_limit);
  const auto d = [&](int k) {
    const SwitchCandidate e = evaluate_switch_point(model, c.lw, c.hw, k);
    return e.delta_lw - e.delta_hw;
  };
  ASSERT_LE(d(7), 0.0);
  ASSERT_LE(d(8), 0.0);
  const SwitchCandidate past = evaluate_switch_point(model, c.lw, c.hw, 32);
  ASSERT_GT(past.delta_lw - past.delta_hw, 0.0);
  ASSERT_GT(past.delta_total, 0.0);

  const Solved s = expect_search_matches_scan(c);
  EXPECT_FALSE(s.search.beneficial());
  EXPECT_EQ(s.scan.model_evaluations, 7);
  EXPECT_EQ(s.search.model_evaluations, 4);  // k = 1, 2, 4, 7
}

TEST(SwitchSearch, MaxKAroundTheCrossing) {
  // k* = 26 at the paper point: a domain that stops short of the crossing
  // has none; powers of two and the clamped steps in between all agree.
  for (const int max_k : {1, 2, 3, 16, 20, 25, 26, 27, 31, 32, 33, 40}) {
    Case c = paper_point();
    c.max_k = max_k;
    const Solved s = expect_search_matches_scan(c);
    EXPECT_EQ(s.search.beneficial(), max_k >= 26) << max_k;
  }
}

TEST(SwitchSearch, IdenticalAndNearIdenticalPairs) {
  // Equal costs cross at a total gain that is numerically zero (immaterial);
  // near-equal ones cross at a tiny gain. Either way the search must land on
  // the scan's verdict.
  const std::pair<double, double> pairs[] = {
      {1800.0, 1800.0}, {1800.0, 1800.25}, {1800.25, 1800.731},
      {18.0, 18.0},     {70.0, 72.0},      {2700.0, 2700.0}};
  for (const double mtbf_hours : {1.0, 5.0}) {
    for (const auto& [lw, hw] : pairs) {
      Case c;
      c.config = model_config(mtbf_hours, 0.6, 1000.0);
      c.lw = {"lw", lw, 1};
      c.hw = {"hw", hw, 1};
      const Solved s = expect_search_matches_scan(c);
      if (lw == hw) {
        EXPECT_FALSE(s.search.beneficial()) << describe(c);
      }
    }
  }
}

TEST(SwitchSearch, RegionOfInterestIsAScanOutput) {
  // The scan reports Fig 10's band; the search never visits all of it, so it
  // reports none rather than a partial one.
  const Solved s = expect_search_matches_scan(paper_point());
  EXPECT_EQ(s.scan.region_lo, std::optional<int>(25));
  EXPECT_EQ(s.scan.region_hi, std::optional<int>(27));
  EXPECT_FALSE(s.search.region_lo.has_value());
  EXPECT_FALSE(s.search.region_hi.has_value());
  EXPECT_TRUE(s.search.sweep.empty());
}

// -----------------------------------------------------------------------
// The tie rules, on synthetic D sequences: the model's D rises strictly
// before the crossing, so flat runs and exact |D| ties need a sequence that
// is only non-decreasing.
// -----------------------------------------------------------------------

// D(k) = d[k - 1], split as delta_lw = D, delta_hw = 0.
struct Synthetic {
  std::vector<double> d;
  std::vector<int> visited;

  SwitchCandidate operator()(int k) {
    visited.push_back(k);
    SwitchCandidate c;
    c.k = k;
    c.delta_lw = d.at(static_cast<std::size_t>(k - 1));
    c.delta_total = c.delta_lw;
    return c;
  }
};

// What the scan picks on the same sequence: the first k of minimal |D|,
// provided D turns positive somewhere.
std::optional<int> scan_pick(const std::vector<double>& d) {
  std::optional<int> best;
  double best_gap = 0.0;
  bool crossed = false;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double gap = d[i] < 0.0 ? -d[i] : d[i];
    if (!best || gap < best_gap) {
      best = static_cast<int>(i) + 1;
      best_gap = gap;
    }
    if (d[i] > 0.0) crossed = true;
  }
  return crossed ? best : std::nullopt;
}

std::optional<int> search_pick(Synthetic& s) {
  const std::optional<SwitchCandidate> c = bracket_fair_crossing(
      static_cast<int>(s.d.size()), std::ref(s));
  return c ? std::optional<int>(c->k) : std::nullopt;
}

TEST(SwitchSearch, FlatRunBeforeTheCrossingPicksItsFirstK) {
  // |D| bottoms out at 2 on k = 4..9; the crossing's |D| = 3 is larger.
  Synthetic s{{-9, -7, -5, -2, -2, -2, -2, -2, -2, 3, 8, 9}, {}};
  EXPECT_EQ(scan_pick(s.d), std::optional<int>(4));
  EXPECT_EQ(search_pick(s), std::optional<int>(4));
  // Each k at most once: the walk down re-reads the ks bisection visited.
  const std::set<int> distinct(s.visited.begin(), s.visited.end());
  EXPECT_EQ(distinct.size(), s.visited.size());
}

TEST(SwitchSearch, CrossingLosesAnExactTie) {
  Synthetic tie{{-6, -4, -1, 1, 5}, {}};
  EXPECT_EQ(scan_pick(tie.d), std::optional<int>(3));
  EXPECT_EQ(search_pick(tie), std::optional<int>(3));
  Synthetic strict{{-6, -4, -1, 0.5, 5}, {}};
  EXPECT_EQ(scan_pick(strict.d), std::optional<int>(4));
  EXPECT_EQ(search_pick(strict), std::optional<int>(4));
}

TEST(SwitchSearch, SyntheticSequencesMatchTheScanRule) {
  // Every non-decreasing sequence over {-2, -1, 0, 1, 2} of lengths 1..7:
  // zeros (D = 0 is not past the crossing), flat runs, crossings at k = 1,
  // at the last k, and none at all.
  const double values[] = {-2.0, -1.0, 0.0, 1.0, 2.0};
  int sequences = 0;
  std::function<void(std::vector<double>&, std::size_t)> grow =
      [&](std::vector<double>& d, std::size_t from) {
        if (!d.empty()) {
          Synthetic s{d, {}};
          ++sequences;
          EXPECT_EQ(search_pick(s), scan_pick(d)) << ::testing::PrintToString(d);
        }
        if (d.size() == 7) return;
        for (std::size_t v = from; v < std::size(values); ++v) {
          d.push_back(values[v]);
          grow(d, v);
          d.pop_back();
        }
      };
  std::vector<double> d;
  grow(d, 0);
  EXPECT_EQ(sequences, 791);
}

TEST(SwitchSearch, RejectsAnEmptyDomain) {
  Synthetic s{{1.0}, {}};
  EXPECT_THROW(bracket_fair_crossing(0, std::ref(s)), InvalidArgument);
}

}  // namespace
}  // namespace shiraz::core
