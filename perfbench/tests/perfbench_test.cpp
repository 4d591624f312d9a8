// Unit tests of the benchmark itself: input generation, metric naming, the
// tail rule, and span self-time arithmetic.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

// ---------------------------------------------------------------- inputs

TEST(Inputs, ServeScriptsAreAFunctionOfTheSeed) {
  const ServeInputs a = make_serve_inputs(7, 3, 2000);
  const ServeInputs b = make_serve_inputs(7, 3, 2000);
  const ServeInputs c = make_serve_inputs(8, 3, 2000);
  ASSERT_EQ(a.clients.size(), 3u);
  EXPECT_EQ(a.warmup, b.warmup);
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    EXPECT_EQ(a.clients[i].bytes, b.clients[i].bytes);
    EXPECT_EQ(a.clients[i].ends, b.clients[i].ends);
    EXPECT_EQ(a.clients[i].ops, b.clients[i].ops);
    EXPECT_EQ(a.clients[i].fresh_key, b.clients[i].fresh_key);
    EXPECT_NE(a.clients[i].bytes, c.clients[i].bytes);
  }
}

TEST(Inputs, ServeMixMatchesTheDocumentedShares) {
  const ServeInputs in = make_serve_inputs(3, 3, 20000);
  std::vector<double> count(kServeOps, 0.0);
  double fresh = 0.0;
  double total = 0.0;
  for (const RequestScript& s : in.clients) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      count[static_cast<std::size_t>(s.ops[i])] += 1.0;
      fresh += s.fresh_key[i] ? 1.0 : 0.0;
      total += 1.0;
    }
  }
  const double expected[kServeOps] = {0.50, 0.10, 0.10, 0.25, 0.05};
  for (std::size_t op = 0; op < kServeOps; ++op) {
    EXPECT_NEAR(count[op] / total, expected[op], 0.01) << serve_op_name(
        static_cast<ServeOp>(op));
  }
  EXPECT_NEAR(fresh / count[0], 0.10, 0.01);
}

TEST(Inputs, FreshSignaturesAreUniqueAndRequestIdsDistinct) {
  const ServeInputs in = make_serve_inputs(11, 3, 5000);
  std::set<std::string> fresh_lines;
  std::set<std::string> all_lines;
  for (const RequestScript& s : in.clients) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      const std::string line(s.line(i));
      EXPECT_TRUE(all_lines.insert(line).second) << line;
      if (!s.fresh_key[i]) continue;
      // The signature part (everything before the id) never repeats.
      fresh_lines.insert(line.substr(0, line.find("\"id\"")));
    }
  }
  std::size_t fresh = 0;
  for (const RequestScript& s : in.clients) {
    for (const bool f : s.fresh_key) fresh += f ? 1 : 0;
  }
  EXPECT_EQ(fresh_lines.size(), fresh);
}

TEST(Inputs, DerivedSeedsAndFleetStreamsRepeat) {
  EXPECT_EQ(derived_seeds(5, 100, 2), derived_seeds(5, 100, 2));
  EXPECT_NE(derived_seeds(5, 100, 2), derived_seeds(6, 100, 2));
  const std::vector<std::uint64_t> seeds = derived_seeds(5, 1000, 3);
  EXPECT_EQ(std::set<std::uint64_t>(seeds.begin(), seeds.end()).size(), 1000u);

  const FleetStreams a = make_fleet_streams(9, 500, 10.0);
  const FleetStreams b = make_fleet_streams(9, 500, 10.0);
  ASSERT_EQ(a.poisson.size(), 500u);
  ASSERT_EQ(a.bursty.size(), 500u);
  for (std::size_t i = 0; i < a.poisson.size(); ++i) {
    EXPECT_EQ(a.poisson[i].name, b.poisson[i].name);
    EXPECT_EQ(a.poisson[i].work, b.poisson[i].work);
    EXPECT_EQ(a.poisson[i].submit_time, b.poisson[i].submit_time);
    EXPECT_EQ(a.bursty[i].submit_time, b.bursty[i].submit_time);
  }
}

// ---------------------------------------------------------------- names

TEST(MetricNames, EveryReportedNameIsValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
      EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
      EXPECT_FALSE(std::string(d.unit).empty()) << d.name;
    }
  }
}

TEST(MetricNames, TheGrammarIsEnforced) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("sim.trace.resident_bytes"));
  EXPECT_TRUE(valid_metric_name("9-lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/unit"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
}

// ---------------------------------------------------------------- tails

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

TEST(Tail, NearestRankQuantiles) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(quantile_sorted(sorted, 0.5), 5.0);
  EXPECT_EQ(quantile_sorted(sorted, 0.9), 9.0);
  EXPECT_EQ(quantile_sorted(sorted, 0.91), 10.0);
  EXPECT_EQ(quantile_sorted(sorted, 1.0), 10.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Tail, AP99NeedsTenSamplesBeyondIt) {
  const TailSummary short_run = summarize_tail(ramp(999));
  EXPECT_EQ(short_run.beyond, 9u);
  EXPECT_FALSE(short_run.tail_supported());

  const TailSummary enough = summarize_tail(ramp(1000));
  EXPECT_EQ(enough.tail, 990.0);
  EXPECT_EQ(enough.beyond, 10u);
  EXPECT_TRUE(enough.tail_supported());
  EXPECT_EQ(enough.p50, 500.0);

  const TailSummary p90 = summarize_tail(ramp(100), 0.90);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_TRUE(p90.tail_supported());
}

TEST(Tail, TiesAtTheTailDoNotCountAsBeyond) {
  const TailSummary flat = summarize_tail(std::vector<double>(5000, 1.0));
  EXPECT_EQ(flat.beyond, 0u);
  EXPECT_FALSE(flat.tail_supported());
}

// ---------------------------------------------------------------- spans

TEST(Spans, SelfTimeSubtractsTheUnionOfClippedChildren) {
  SpanLog log;
  const std::int64_t root = log.add(Span{"root", 0.0, 10.0, -1, 1});
  log.add(Span{"child", 1.0, 3.0, root, 1});
  const std::int64_t b = log.add(Span{"child", 2.0, 5.0, root, 1});  // overlaps
  log.add(Span{"late", 8.0, 12.0, root, 1});  // clipped to the parent's end
  log.add(Span{"leaf", 2.5, 4.0, b, 1});      // a grandchild: not root's
  const std::map<std::string, LayerTime> t = layer_times(log.spans());

  // root covers [1, 5] u [8, 10] = 6 of its 10.
  EXPECT_DOUBLE_EQ(t.at("root").total_s, 10.0);
  EXPECT_DOUBLE_EQ(t.at("root").self_s, 4.0);
  EXPECT_EQ(t.at("child").calls, 2u);
  EXPECT_DOUBLE_EQ(t.at("child").total_s, 5.0);
  EXPECT_DOUBLE_EQ(t.at("child").self_s, 5.0 - 1.5);
  EXPECT_DOUBLE_EQ(t.at("late").self_s, 4.0);
  EXPECT_DOUBLE_EQ(t.at("leaf").self_s, 1.5);
  EXPECT_DOUBLE_EQ(total_us(t, "root"), 10.0e6);
  EXPECT_DOUBLE_EQ(self_us(t, "absent"), 0.0);
}

TEST(Spans, AppendRebasesParentsAndDisabledLogsRecordNothing) {
  SpanLog a;
  a.add(Span{"x", 0.0, 1.0, -1, 1});
  SpanLog b;
  const std::int64_t p = b.add(Span{"outer", 0.0, 4.0, -1, 2});
  b.add(Span{"inner", 1.0, 2.0, p, 2});
  a.append(b);
  ASSERT_EQ(a.spans().size(), 3u);
  EXPECT_EQ(a.spans()[2].parent, 1);
  EXPECT_DOUBLE_EQ(layer_times(a.spans()).at("outer").self_s, 3.0);

  SpanLog off(false);
  EXPECT_EQ(off.open("x", 1), -1);
  off.close(-1);
  { const ScopedSpan s(off, "y", 2); }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
