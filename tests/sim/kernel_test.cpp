// The flat replay kernel contract (sim/kernel.h): for every closed-form-
// eligible configuration the kernel's result equals the event loop's bit for
// bit — across schedulers, the whole scenario-corpus regime catalog, and
// every worker count — a sink-armed kernel narrates exactly the event loop's
// stream, and every ineligible configuration falls back to the event loop
// with identical behavior. Bit-identity here means EXPECT_EQ on doubles: the
// kernel is an optimization, never an approximation.
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/schedule.h"
#include "common/error.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "predict/oracle.h"
#include "predict/predictor.h"
#include "reliability/weibull.h"
#include "scenario/scenario.h"
#include "sim/engine.h"
#include "sim/kernel.h"
#include "sim/optimizer.h"
#include "sim/trace.h"

#ifndef SHIRAZ_TESTDATA_SCENARIOS
#error "SHIRAZ_TESTDATA_SCENARIOS must point at testdata/scenarios"
#endif

namespace shiraz::sim {
namespace {

constexpr std::uint64_t kSeed = 20180909;
constexpr std::size_t kReps = 6;
constexpr double kDeltaLw = 18.0;
constexpr double kDeltaHw = 1800.0;

Engine make_engine(bool flat_kernel, Seconds t_total = hours(200.0),
                   Seconds mtbf = hours(5.0)) {
  EngineConfig cfg;
  cfg.t_total = t_total;
  cfg.flat_kernel = flat_kernel;
  return Engine(reliability::Weibull::from_mtbf(0.6, mtbf), cfg);
}

void expect_identical(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].name, b.apps[i].name);
    EXPECT_EQ(a.apps[i].useful, b.apps[i].useful) << "app " << i;
    EXPECT_EQ(a.apps[i].io, b.apps[i].io) << "app " << i;
    EXPECT_EQ(a.apps[i].lost, b.apps[i].lost) << "app " << i;
    EXPECT_EQ(a.apps[i].restart, b.apps[i].restart) << "app " << i;
    EXPECT_EQ(a.apps[i].checkpoints, b.apps[i].checkpoints) << "app " << i;
    EXPECT_EQ(a.apps[i].failures_hit, b.apps[i].failures_hit) << "app " << i;
  }
  EXPECT_EQ(a.wall, b.wall);
  EXPECT_EQ(a.idle, b.idle);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.switches, b.switches);
}

/// The three paper policies the corpus matrix exercises, plus the plan
/// shapes only the narration matrix needs: a heavy-only Shiraz pair (k = 0),
/// a three-app multi-switch chain with a skipped turn, and two rotating
/// pairs, one of them k-less. Shiraz+ stretches the heavy member's OCI by 4
/// (an arbitrary catalog-scale factor).
enum class PolicyKind {
  kBaseline,
  kShiraz,
  kShirazPlus,
  kShirazK0,
  kMultiSwitch,
  kPairRotation,
};

const char* policy_name(PolicyKind p) {
  switch (p) {
    case PolicyKind::kBaseline: return "Baseline";
    case PolicyKind::kShiraz: return "Shiraz";
    case PolicyKind::kShirazPlus: return "ShirazPlus";
    case PolicyKind::kShirazK0: return "ShirazK0";
    case PolicyKind::kMultiSwitch: return "MultiSwitch";
    case PolicyKind::kPairRotation: return "PairRotation";
  }
  return "?";
}

struct PolicyCase {
  std::vector<SimJob> jobs;
  std::unique_ptr<Scheduler> scheduler;
};

PolicyCase make_policy(PolicyKind kind, Seconds nominal_mtbf) {
  PolicyCase c;
  switch (kind) {
    case PolicyKind::kMultiSwitch:
      c.jobs = {SimJob::at_oci("a", 12.0, nominal_mtbf),
                SimJob::at_oci("b", 120.0, nominal_mtbf),
                SimJob::at_oci("c", 1200.0, nominal_mtbf)};
      c.scheduler = std::make_unique<MultiSwitchScheduler>(std::vector<int>{9, 0});
      return c;
    case PolicyKind::kPairRotation:
      c.jobs = {SimJob::at_oci("lw0", 12.0, nominal_mtbf),
                SimJob::at_oci("hw0", 1200.0, nominal_mtbf),
                SimJob::at_oci("lw1", 30.0, nominal_mtbf),
                SimJob::at_oci("hw1", 3000.0, nominal_mtbf)};
      c.scheduler = std::make_unique<PairRotationScheduler>(
          std::vector<std::optional<int>>{14, std::nullopt});
      return c;
    default:
      break;
  }
  const unsigned stretch = kind == PolicyKind::kShirazPlus ? 4 : 1;
  c.jobs = {SimJob::at_oci("lw", kDeltaLw, nominal_mtbf),
            SimJob::at_oci("hw", kDeltaHw, nominal_mtbf, stretch)};
  if (kind == PolicyKind::kBaseline) {
    c.scheduler = std::make_unique<AlternateAtFailure>();
  } else {
    c.scheduler =
        std::make_unique<ShirazPairScheduler>(kind == PolicyKind::kShirazK0 ? 0 : 26);
  }
  return c;
}

/// Event streams equal element for element; reports the first divergence
/// instead of dumping two multi-thousand-event vectors.
void expect_same_stream(const std::vector<obs::Event>& got,
                        const std::vector<obs::Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    ADD_FAILURE() << "event " << i << " diverges: " << obs::kind_name(got[i].kind)
                  << " rep " << got[i].rep << " t " << got[i].time << " dur "
                  << got[i].duration << " app " << got[i].app << " value "
                  << got[i].value << " vs " << obs::kind_name(want[i].kind)
                  << " rep " << want[i].rep << " t " << want[i].time << " dur "
                  << want[i].duration << " app " << want[i].app << " value "
                  << want[i].value;
    return;
  }
}

// ---------------------------------------------------------------------------
// Kernel vs event loop across the scenario corpus: every shipped failure
// regime (Markov bursts, cascades, pools, bathtub, drift, renewal controls)
// through every paper policy, serial and parallel.

using CorpusParam = std::tuple<std::string, PolicyKind>;

class FlatKernelCorpus : public ::testing::TestWithParam<CorpusParam> {};

const scenario::Scenario& corpus_scenario(const std::string& id) {
  static const std::vector<scenario::Scenario> all =
      scenario::load_dir(SHIRAZ_TESTDATA_SCENARIOS);
  for (const scenario::Scenario& s : all) {
    if (s.id == id) return s;
  }
  throw InvalidArgument("scenario not in corpus: " + id);
}

std::vector<std::string> corpus_ids() {
  std::vector<std::string> ids;
  for (const scenario::Scenario& s :
       scenario::load_dir(SHIRAZ_TESTDATA_SCENARIOS)) {
    ids.push_back(s.id);
  }
  return ids;
}

TEST_P(FlatKernelCorpus, BitIdenticalToEventLoopForEveryWorkerCount) {
  const auto& [id, kind] = GetParam();
  const scenario::Scenario& sc = corpus_scenario(id);
  const PolicyCase c = make_policy(kind, sc.nominal_mtbf);

  // Regime traces: the stateful-safe path (DESIGN.md §8). Both engines
  // replay the same store; only the dispatch differs.
  const reliability::FailureRegimePtr regime = sc.make_regime();
  const TraceStore traces(*regime, kSeed, sc.horizon);
  const Engine flat = make_engine(true, sc.horizon, sc.nominal_mtbf);
  const Engine loop = make_engine(false, sc.horizon, sc.nominal_mtbf);

  std::optional<SimResult> reference;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    CampaignOptions opts;
    opts.workers = workers;
    opts.traces = &traces;
    const SimResult via_kernel =
        flat.run_many(c.jobs, *c.scheduler, kReps, kSeed, opts);
    const SimResult via_loop =
        loop.run_many(c.jobs, *c.scheduler, kReps, kSeed, opts);
    expect_identical(via_kernel, via_loop);
    if (!reference) {
      reference = via_loop;
    } else {
      expect_identical(via_kernel, *reference);  // worker-count invariance
    }
  }
}

std::vector<CorpusParam> corpus_matrix() {
  std::vector<CorpusParam> params;
  for (const std::string& id : corpus_ids()) {
    for (const PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kShiraz,
                                  PolicyKind::kShirazPlus}) {
      params.emplace_back(id, kind);
    }
  }
  return params;
}

/// gtest names allow no '-', which scenario ids use.
std::string test_name(std::string name) {
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

std::string param_name(const std::string& id, PolicyKind kind) {
  return test_name(id + "_" + policy_name(kind));
}

INSTANTIATE_TEST_SUITE_P(Corpus, FlatKernelCorpus,
                         ::testing::ValuesIn(corpus_matrix()),
                         [](const ::testing::TestParamInfo<CorpusParam>& info) {
                           return param_name(std::get<0>(info.param),
                                             std::get<1>(info.param));
                         });

// ---------------------------------------------------------------------------
// Narration: with a sink armed the kernel emits exactly the event loop's
// stream, through either sink route, for every plan shape, regime, and
// worker count. A registry on the kernel side pins that the stream really
// came from the kernel — a silent fallback to the event loop would pass the
// equality but fail the counts.

using NarrationParam = std::tuple<std::string, PolicyKind>;

class FlatKernelNarration : public ::testing::TestWithParam<NarrationParam> {};

TEST_P(FlatKernelNarration, EventStreamEqualsTheEventLoops) {
  const auto& [id, kind] = GetParam();
  const scenario::Scenario& sc = corpus_scenario(id);
  const PolicyCase c = make_policy(kind, sc.nominal_mtbf);
  const reliability::FailureRegimePtr regime = sc.make_regime();
  const TraceStore traces(*regime, kSeed, sc.horizon);
  const reliability::Weibull dist =
      reliability::Weibull::from_mtbf(0.6, sc.nominal_mtbf);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    for (const bool via_config : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "workers " << workers << ", sink via "
                                        << (via_config ? "EngineConfig"
                                                       : "CampaignOptions"));
      // Each side records through the route under test; the kernel side
      // also counts its dispatch.
      obs::MetricsRegistry registry;
      auto run = [&](bool flat_kernel, obs::EventRecorder& recorder) {
        EngineConfig cfg;
        cfg.t_total = sc.horizon;
        cfg.flat_kernel = flat_kernel;
        CampaignOptions opts;
        opts.workers = workers;
        opts.traces = &traces;
        (via_config ? cfg.sink : opts.sink) = &recorder;
        if (flat_kernel) opts.metrics = &registry;
        const Engine engine(dist, cfg);
        return engine.run_many(c.jobs, *c.scheduler, kReps, kSeed, opts);
      };
      obs::EventRecorder kernel_events;
      obs::EventRecorder loop_events;
      const SimResult via_kernel = run(true, kernel_events);
      const SimResult via_loop = run(false, loop_events);

      expect_identical(via_kernel, via_loop);
      ASSERT_FALSE(loop_events.events().empty());
      expect_same_stream(kernel_events.events(), loop_events.events());
      EXPECT_EQ(registry.counter("shiraz_sim_kernel_replays_total").value(), kReps);
      EXPECT_EQ(registry.counter("shiraz_sim_event_loop_runs_total").value(), 0u);
    }
  }
}

std::vector<NarrationParam> narration_matrix() {
  std::vector<NarrationParam> params;
  for (const std::string& id : corpus_ids()) {
    for (const PolicyKind kind :
         {PolicyKind::kBaseline, PolicyKind::kShiraz, PolicyKind::kShirazPlus,
          PolicyKind::kShirazK0, PolicyKind::kMultiSwitch,
          PolicyKind::kPairRotation}) {
      params.emplace_back(id, kind);
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Corpus, FlatKernelNarration,
                         ::testing::ValuesIn(narration_matrix()),
                         [](const ::testing::TestParamInfo<NarrationParam>& info) {
                           return param_name(std::get<0>(info.param),
                                             std::get<1>(info.param));
                         });

// ---------------------------------------------------------------------------
// Direct kernel calls vs Engine::replay on a renewal process.

TEST(FlatKernel, FlatReplayMatchesEngineReplay) {
  const Engine loop = make_engine(false);
  const TraceStore traces(loop, kSeed);
  traces.ensure(kReps);
  for (const PolicyKind kind :
       {PolicyKind::kBaseline, PolicyKind::kShiraz, PolicyKind::kShirazPlus}) {
    const PolicyCase c = make_policy(kind, hours(5.0));
    for (std::size_t r = 0; r < kReps; ++r) {
      const SimResult via_loop = loop.replay(c.jobs, *c.scheduler, traces.trace(r));
      SimResult via_kernel;
      ASSERT_STREQ(try_flat_replay(loop.config(), c.jobs, *c.scheduler, nullptr,
                                   nullptr, traces.trace(r), &via_kernel),
                   nullptr);
      expect_identical(via_kernel, via_loop);
    }
  }
}

TEST(FlatKernel, FlatReplayNarratesIntoTheConfigSink) {
  // The kernel narrates into the sink the engine hands it (EngineConfig::sink
  // for a single replay) exactly as Engine::replay does on the event loop,
  // run by run.
  const Engine loop = make_engine(false);
  const TraceStore traces(loop, kSeed);
  const PolicyCase c = make_policy(PolicyKind::kShiraz, hours(5.0));
  for (std::size_t r = 0; r < 3; ++r) {
    obs::EventRecorder kernel_events;
    EngineConfig cfg = loop.config();
    cfg.sink = &kernel_events;
    SimResult via_kernel;
    ASSERT_STREQ(try_flat_replay(cfg, c.jobs, *c.scheduler, nullptr, cfg.sink,
                                 traces.trace(r), &via_kernel),
                 nullptr);

    obs::EventRecorder loop_events;
    cfg.sink = &loop_events;
    cfg.flat_kernel = false;
    const SimResult via_loop =
        Engine(reliability::Weibull::from_mtbf(0.6, hours(5.0)), cfg)
            .replay(c.jobs, *c.scheduler, traces.trace(r));
    expect_identical(via_kernel, via_loop);
    ASSERT_FALSE(loop_events.events().empty());
    expect_same_stream(kernel_events.events(), loop_events.events());
  }
}

TEST(FlatKernel, MultiSwitchAndPairRotationFlatten) {
  const Engine flat = make_engine(true);
  const Engine loop = make_engine(false);
  const TraceStore traces(loop, kSeed);

  // Each plan shape must run on the kernel — the registry rules out a silent
  // fallback, which would pass the equality — and equal the event loop bit
  // for bit.
  auto expect_flattens = [&](const std::vector<SimJob>& jobs,
                             const Scheduler& sched) {
    SCOPED_TRACE(sched.name() + " over " + std::to_string(jobs.size()) + " apps");
    obs::MetricsRegistry registry;
    CampaignOptions opts;
    opts.traces = &traces;
    const SimResult via_loop = loop.run_many(jobs, sched, kReps, kSeed, opts);
    opts.metrics = &registry;
    expect_identical(flat.run_many(jobs, sched, kReps, kSeed, opts), via_loop);
    EXPECT_EQ(registry.counter("shiraz_sim_kernel_replays_total").value(), kReps);
  };
  auto jobs_of = [](std::initializer_list<std::pair<const char*, Seconds>> apps) {
    std::vector<SimJob> jobs;
    for (const auto& [name, delta] : apps) {
      jobs.push_back(SimJob::at_oci(name, delta, hours(5.0)));
    }
    return jobs;
  };
  const std::vector<SimJob> three = jobs_of({{"a", 12.0}, {"b", 120.0}, {"c", 1200.0}});

  // Multi-switch chains, with zero counts (skipped turns) first, last, on
  // every switching app, and between two runnable ones.
  for (const std::vector<int>& ks : {std::vector<int>{9, 0}, {0, 9}, {0, 0}}) {
    expect_flattens(three, MultiSwitchScheduler(ks));
  }
  expect_flattens(
      jobs_of({{"a", 12.0}, {"b", 60.0}, {"c", 120.0}, {"d", 1200.0}}),
      MultiSwitchScheduler(std::vector<int>{3, 0, 5}));

  // Rotating pairs: a solved k, a k-less pair (lead-alternating) and, over
  // three pairs (a cycle of 6 plans), a k == 0 pair (heavy only).
  expect_flattens(
      jobs_of({{"lw0", 12.0}, {"hw0", 1200.0}, {"lw1", 30.0}, {"hw1", 3000.0}}),
      PairRotationScheduler(std::vector<std::optional<int>>{14, std::nullopt}));
  expect_flattens(jobs_of({{"lw0", 12.0},
                           {"hw0", 1200.0},
                           {"lw1", 30.0},
                           {"hw1", 3000.0},
                           {"lw2", 6.0},
                           {"hw2", 600.0}}),
                  PairRotationScheduler(
                      std::vector<std::optional<int>>{14, 0, std::nullopt}));

  // A k == 0 Shiraz pair (heavy only), and the baseline over three apps.
  expect_flattens(make_policy(PolicyKind::kShiraz, hours(5.0)).jobs,
                  ShirazPairScheduler(0));
  expect_flattens(three, AlternateAtFailure());
}

/// The kernel's pair sweep (heavy-weight lanes in blocks of four, light-weight
/// credit from a per-repetition histogram, one iterated-sum table per call)
/// against the event loop's sweep_one_rep, bit for bit, at workers 1 and 3.
/// The k ranges cover a single candidate, partial last lane blocks (n = 2, 7
/// and 11), gaps whose prefix completes fewer than k_lo segments, and k_hi
/// above the benchmark's 64.
void expect_sweep_matches_event_loop(const Engine& flat, const Engine& loop,
                                     const SimJob& lw, const SimJob& hw,
                                     const TraceStore& traces) {
  for (const auto& [k_lo, k_hi] : {std::pair{1, 64}, {20, 32}, {5, 5}, {2, 3},
                                   {3, 9}, {60, 70}}) {
    const std::vector<SweepUseful> want =
        replay_pair_sweep(loop, lw, hw, k_lo, k_hi, kReps, traces, 1, nullptr);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE(::testing::Message() << "k in [" << k_lo << ", " << k_hi
                                        << "], workers " << workers);
      const std::vector<SweepUseful> got = replay_pair_sweep(
          flat, lw, hw, k_lo, k_hi, kReps, traces, workers, nullptr);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].lw, want[i].lw) << "k = " << k_lo + static_cast<int>(i);
        EXPECT_EQ(got[i].hw, want[i].hw) << "k = " << k_lo + static_cast<int>(i);
      }
    }
  }
}

TEST(FlatKernel, SweepMatchesEventLoopSweep) {
  const Engine flat = make_engine(true);
  const Engine loop = make_engine(false);
  const TraceStore traces(loop, kSeed);
  expect_sweep_matches_event_loop(flat, loop,
                                  SimJob::at_oci("lw", kDeltaLw, hours(5.0)),
                                  SimJob::at_oci("hw", kDeltaHw, hours(5.0)),
                                  traces);
}

TEST(FlatKernel, SweepTailsThatStopAtTheHorizonMatchTheEventLoop) {
  // MTBF 500 h over a 60 h horizon: most repetitions see no failure, so the
  // light-weight prefix runs to k_hi and the heavy-weight tails end at the
  // horizon rather than at a failure.
  const Seconds horizon = hours(60.0);
  const Engine flat = make_engine(true, horizon, hours(500.0));
  const Engine loop = make_engine(false, horizon, hours(500.0));
  const TraceStore traces(loop, kSeed);
  traces.ensure(kReps);
  std::size_t failure_free = 0;
  for (std::size_t r = 0; r < kReps; ++r) {
    if (traces.trace(r).fail_time(0) >= horizon) ++failure_free;
  }
  ASSERT_GT(failure_free, 0u);
  expect_sweep_matches_event_loop(
      flat, loop, SimJob::at_oci("lw", kDeltaLw, hours(500.0)),
      SimJob::at_oci("hw", kDeltaHw, hours(500.0)), traces);
}

// The same check over every shipped failure regime, at the four delta pairs
// the benchmark's regime sweep searches.
class FlatKernelSweepCorpus : public ::testing::TestWithParam<std::string> {};

TEST_P(FlatKernelSweepCorpus, SweepMatchesTheEventLoopSweep) {
  const scenario::Scenario& sc = corpus_scenario(GetParam());
  const reliability::FailureRegimePtr regime = sc.make_regime();
  const TraceStore traces(*regime, kSeed, sc.horizon);
  const Engine flat = make_engine(true, sc.horizon, sc.nominal_mtbf);
  const Engine loop = make_engine(false, sc.horizon, sc.nominal_mtbf);
  for (const auto& [delta_lw, delta_hw] :
       {std::pair{18.0, 1800.0}, {6.0, 600.0}, {36.0, 3600.0}, {72.0, 7200.0}}) {
    SCOPED_TRACE(::testing::Message() << "delta " << delta_lw << "/" << delta_hw);
    expect_sweep_matches_event_loop(
        flat, loop, SimJob::at_oci("lw", delta_lw, sc.nominal_mtbf),
        SimJob::at_oci("hw", delta_hw, sc.nominal_mtbf), traces);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, FlatKernelSweepCorpus,
                         ::testing::ValuesIn(corpus_ids()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return test_name(info.param);
                         });

// ---------------------------------------------------------------------------
// The count -> sum construction: run_flat counts each app's segments and
// reads its useful work and io off an IteratedSum path from 0.0, which must
// equal the engine's m sequential adds bit for bit.

/// IteratedSum(x0, c) against m sequential `x += c` from x0: at every count
/// up to 300 and at 200 random counts up to max_m, plus max_m itself, asked
/// in a random order, so the path is both extended and read behind its end.
void expect_sequential_adds(Seconds x0, Seconds c, std::size_t max_m, Rng& rng) {
  SCOPED_TRACE(::testing::Message() << std::hexfloat << "x0 " << x0 << ", c " << c
                                    << std::defaultfloat << ", m <= " << max_m);
  std::vector<Seconds> want(max_m + 1, x0);
  for (std::size_t m = 1; m <= max_m; ++m) want[m] = want[m - 1] + c;
  auto below = [&rng](std::size_t n) {  // uniform in [0, n]
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n)));
  };
  std::vector<std::size_t> counts;
  for (std::size_t m = 0; m <= std::min<std::size_t>(max_m, 300); ++m) {
    counts.push_back(m);
  }
  for (int i = 0; i < 200; ++i) counts.push_back(below(max_m));
  counts.push_back(max_m);
  for (std::size_t i = counts.size() - 1; i > 0; --i) {
    std::swap(counts[i], counts[below(i)]);
  }
  IteratedSum path(x0, c);
  for (const std::size_t m : counts) {
    const Seconds got = path.after(m);
    ASSERT_EQ(got, want[m]) << "m = " << m << std::hexfloat << ": " << got << " vs "
                            << want[m];
  }
}

TEST(IteratedSum, MatchesSequentialAddsForRandomSteps) {
  Rng rng(kSeed);
  for (int i = 0; i < 48; ++i) {
    const Seconds c = std::exp(rng.uniform(std::log(1e-3), std::log(1e5)));
    expect_sequential_adds(0.0, c, static_cast<std::size_t>(rng.uniform_int(1, 200'000)),
                           rng);
  }
}

TEST(IteratedSum, MatchesSequentialAddsForTieProneSteps) {
  // c = odd * 2^k is a tie in the binade whose ulp is 2^(k+1). With a small
  // odd (1.5 * 2^k) that binade lies past every sum here; with an odd of 36
  // to 52 bits the sum walks into it after 2^17 adds or far fewer, and a
  // tie's rounding there depends on the sum's parity.
  Rng rng(kSeed + 1);
  for (int k = -12; k <= 12; k += 4) {
    expect_sequential_adds(0.0, std::ldexp(1.5, k), 200'000, rng);
    expect_sequential_adds(0.0, std::ldexp(5.0, k), 100'000, rng);
  }
  for (int i = 0; i < 24; ++i) {
    const int bits = static_cast<int>(rng.uniform_int(36, 52));
    const std::int64_t odd =
        rng.uniform_int(std::int64_t{1} << (bits - 1), (std::int64_t{1} << bits) - 1) | 1;
    const int k = static_cast<int>(rng.uniform_int(-bits - 10, -bits + 17));
    expect_sequential_adds(0.0, std::ldexp(static_cast<Seconds>(odd), k), 200'000, rng);
  }
  // The edge traces' tie costs (kEdgeCosts below): lowest bits at 2^-34 to
  // 2^-37, ties in binades that sums of a few hundred adds reach.
  for (const Seconds c :
       {823.0 + 0x1p-35, 18.0 + 0x1p-36, 8050.0 + 0x1p-34, 1800.0 + 0x1p-37}) {
    expect_sequential_adds(0.0, c, 200'000, rng);
  }
}

TEST(IteratedSum, MatchesSequentialAddsForPowersOfTwo) {
  Rng rng(kSeed + 2);
  for (int k = -20; k <= 16; k += 3) {
    expect_sequential_adds(0.0, std::ldexp(1.0, k), 200'000, rng);
  }
}

TEST(IteratedSum, StepsBelowHalfAnUlpLeaveTheSumWhereItRounds) {
  // From 2^60 (ulp 256, even units): an add below half an ulp never moves the
  // sum; exactly half an ulp rounds to the even neighbour, so the sum stays
  // from even units and moves once from odd ones; just above half an ulp
  // every add is a whole ulp.
  Rng rng(kSeed + 3);
  const Seconds x0 = 0x1p60;
  for (const Seconds c : {1.0, 127.0, 128.0, 129.0, 383.0, 384.0}) {
    expect_sequential_adds(x0, c, 5'000, rng);
    expect_sequential_adds(x0 + 256.0, c, 5'000, rng);
  }
  // Past any count a sequential loop could check: a sum no add moves.
  for (const Seconds c : {1.0, 128.0}) {
    IteratedSum path(x0, c);
    EXPECT_EQ(path.after(std::size_t{1} << 60), x0);
  }
  IteratedSum odd(x0 + 256.0, 128.0);
  EXPECT_EQ(odd.after(std::size_t{1} << 60), x0 + 512.0);
}

TEST(IteratedSum, NoAddsAndOneAdd) {
  for (const Seconds c : {1e-3, 18.0, std::sqrt(2.0 * hours(24.0) * 1800.0), 0x1p20}) {
    IteratedSum path(0.0, c);
    EXPECT_EQ(path.after(1), c);
    EXPECT_EQ(path.after(0), 0.0);
    IteratedSum from(1000.0, c);
    EXPECT_EQ(from.after(0), 1000.0);
    EXPECT_EQ(from.after(1), 1000.0 + c);
  }
}

// ---------------------------------------------------------------------------
// The closed forms (DESIGN.md §10) on traces built to sit on their edges.
// Inside one binade the kernel counts a walk's segments instead of stepping
// them. Here every failure lands on, or one ulp either side of, a segment
// end of some walk the kernel closes — so an off-by-one in the inclusive
// (failure) or exclusive (horizon) bound, or a step one ulp off, changes a
// count or a lost/truncated double — or on and next to a power of two,
// where a walk leaves its binade. Walks of 1 to 3 and 23 to 25 light-weight
// segments straddle the cutoffs below which the kernel steps; the first gap,
// from 0, always steps.

/// Periods and checkpoint costs of a light- and a heavy-weight app.
struct EdgeCosts {
  const char* name;
  Seconds tau_lw;
  Seconds delta_lw;
  Seconds tau_hw;
  Seconds delta_hw;
};

/// OCI-scale doubles with full mantissas; the same scale with each value's
/// lowest bit at 2^(e−53), so it is a tie in the binade [2^e, 2^(e+1)) for
/// an e in 16..19, all of which the clock walks through; and coarse binary
/// fractions, half-integers and a power of two, which every binade here
/// steps exactly.
const EdgeCosts kEdgeCosts[] = {
    {"oci", std::sqrt(2.0 * hours(24.0) * 18.0), 18.0,
     std::sqrt(2.0 * hours(24.0) * 1800.0), 1800.0},
    {"ties", 823.0 + 0x1p-35, 18.0 + 0x1p-36, 8050.0 + 0x1p-34, 1800.0 + 0x1p-37},
    {"coarse", 600.375, 0.5, 4096.0, 1800.5},
};

/// A walk's end as the engine computes it: `segments` rounds of
/// `t + tau + delta`.
Seconds walk_end(Seconds t, Seconds tau, Seconds delta, std::int64_t segments) {
  for (std::int64_t i = 0; i < segments; ++i) t = t + tau + delta;
  return t;
}

/// A point past `from` on an edge: the end of a light-weight walk (1 to 3
/// or 23 to 25 segments, around the kernel's two cutoffs, half the time,
/// else 1 to 60), of a heavy-weight walk, of a lane that switched after 1 to
/// 64 light-weight segments, or the next power of two — then that point or
/// one ulp either side of it.
Seconds edge_point(Rng& rng, const EdgeCosts& c, Seconds from) {
  Seconds point = from;
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      const std::int64_t around = rng.uniform_int(0, 3);
      point = walk_end(from, c.tau_lw, c.delta_lw,
                       around == 0   ? rng.uniform_int(1, 3)
                       : around == 1 ? rng.uniform_int(23, 25)
                                     : rng.uniform_int(1, 60));
      break;
    }
    case 1:
      point = walk_end(from, c.tau_hw, c.delta_hw, rng.uniform_int(1, 8));
      break;
    case 2:
      point = walk_end(walk_end(from, c.tau_lw, c.delta_lw, rng.uniform_int(1, 64)),
                       c.tau_hw, c.delta_hw, rng.uniform_int(1, 6));
      break;
    default: {
      int exponent = 0;
      std::frexp(from, &exponent);
      point = std::ldexp(1.0, exponent);
      break;
    }
  }
  const std::int64_t side = rng.uniform_int(-1, 1);
  if (side != 0) {
    point = std::nextafter(point, side < 0 ? 0.0 : std::numeric_limits<Seconds>::max());
  }
  return point > from ? point : walk_end(from, c.tau_lw, c.delta_lw, 1);
}

/// An engine whose failures, after a first gap to `start`, fall on edge
/// points (a stateless sampler: TraceStore feeds it each failure time).
Engine edge_engine(bool flat_kernel, const EdgeCosts& c, Seconds start,
                   Seconds horizon) {
  EngineConfig cfg;
  cfg.t_total = horizon;
  cfg.flat_kernel = flat_kernel;
  return Engine(
      [c, start](Rng& rng, Seconds t) {
        return t == 0.0 ? start : edge_point(rng, c, t) - t;
      },
      cfg);
}

std::vector<SimJob> edge_jobs(const EdgeCosts& c) {
  return {SimJob{"lw", c.delta_lw, std::make_shared<checkpoint::EquidistantSchedule>(c.tau_lw)},
          SimJob{"hw", c.delta_hw,
                 std::make_shared<checkpoint::EquidistantSchedule>(c.tau_hw)}};
}

/// Starts the edge gaps inside, and at the bottom of, the clock's binades
/// [2^16, 2^20]; horizons on and one ulp either side of 2^20, so the last
/// walks stop on the exclusive bound next to a power of two.
const Seconds kEdgeStarts[] = {0x1p16 - 3000.0, 0x1p17, 0x1p18 + 777.0};
const Seconds kEdgeHorizons[] = {0x1p20, std::nextafter(0x1p20, 0.0),
                                 std::nextafter(0x1p20, 0x1p21)};

TEST(FlatKernel, SweepMatchesTheEventLoopOnEdgeTraces) {
  for (const EdgeCosts& c : kEdgeCosts) {
    for (const Seconds start : kEdgeStarts) {
      for (const Seconds horizon : kEdgeHorizons) {
        SCOPED_TRACE(::testing::Message()
                     << c.name << " costs, start " << start << ", horizon "
                     << std::hexfloat << horizon << std::defaultfloat);
        const Engine flat = edge_engine(true, c, start, horizon);
        const Engine loop = edge_engine(false, c, start, horizon);
        const TraceStore traces(loop, kSeed);
        const std::vector<SimJob> jobs = edge_jobs(c);
        expect_sweep_matches_event_loop(flat, loop, jobs[0], jobs[1], traces);
      }
    }
  }
}

TEST(FlatKernel, CampaignsMatchTheEventLoopOnEdgeTraces) {
  // ShirazPair(30) and (60) end their light-weight budget inside a walk the
  // kernel jumps; (2) and (3) sit on and just past the jump cutoff; (1)
  // switches at once.
  for (const EdgeCosts& c : kEdgeCosts) {
    for (const Seconds start : kEdgeStarts) {
      for (const Seconds horizon : kEdgeHorizons) {
        SCOPED_TRACE(::testing::Message()
                     << c.name << " costs, start " << start << ", horizon "
                     << std::hexfloat << horizon << std::defaultfloat);
        const Engine flat = edge_engine(true, c, start, horizon);
        const Engine loop = edge_engine(false, c, start, horizon);
        const TraceStore traces(loop, kSeed);
        CampaignOptions opts;
        opts.traces = &traces;
        const std::vector<SimJob> jobs = edge_jobs(c);
        expect_identical(flat.run_many(jobs, AlternateAtFailure(), kReps, kSeed, opts),
                         loop.run_many(jobs, AlternateAtFailure(), kReps, kSeed, opts));
        for (const int k : {1, 2, 3, 30, 60}) {
          SCOPED_TRACE(::testing::Message() << "ShirazPair(" << k << ")");
          const ShirazPairScheduler shiraz(k);
          expect_identical(flat.run_many(jobs, shiraz, kReps, kSeed, opts),
                           loop.run_many(jobs, shiraz, kReps, kSeed, opts));
        }
      }
    }
  }
}

/// The kernel, silent and narrating, against the event loop on one trace.
void expect_kernel_matches_event_loop(const std::vector<SimJob>& jobs,
                                      const Scheduler& sched, const FailureTrace& trace) {
  SCOPED_TRACE(sched.name());
  EngineConfig cfg;
  cfg.t_total = trace.horizon();
  cfg.flat_kernel = false;
  const Engine loop(reliability::Weibull::from_mtbf(0.6, hours(24.0)), cfg);
  obs::EventRecorder loop_events;
  EngineConfig narrated = cfg;
  narrated.sink = &loop_events;
  const SimResult want =
      Engine(reliability::Weibull::from_mtbf(0.6, hours(24.0)), narrated)
          .replay(jobs, sched, trace);
  SimResult silent;
  ASSERT_STREQ(try_flat_replay(cfg, jobs, sched, nullptr, nullptr, trace, &silent),
               nullptr);
  expect_identical(silent, want);
  obs::EventRecorder kernel_events;
  SimResult told;
  ASSERT_STREQ(try_flat_replay(cfg, jobs, sched, nullptr, &kernel_events, trace, &told),
               nullptr);
  expect_identical(told, want);
  expect_same_stream(kernel_events.events(), loop_events.events());
}

TEST(FlatKernel, ClosedFormsMatchTheEventLoopWhereTheHorizonIsAnEdge) {
  // Direct traces, so the horizon itself can sit on (or one ulp off) a
  // segment end: a walk that reaches it is truncated, not completed. The
  // sweep's counts are checked against one event-loop replay per k.
  std::size_t traces_checked = 0;
  for (const EdgeCosts& c : kEdgeCosts) {
    const std::vector<SimJob> jobs = edge_jobs(c);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng rng(seed);
      const Seconds start = kEdgeStarts[seed % 3];
      std::vector<Seconds> gaps{start};
      Seconds t = start;
      for (int i = 0; i < 30; ++i) {
        gaps.push_back(edge_point(rng, c, t) - t);
        t += gaps.back();
      }
      const Seconds horizon = edge_point(rng, c, t);
      // The last failure lands on the horizon when the sum reaches it, else
      // a heavy-weight period past it.
      const Seconds last = horizon - t;
      gaps.push_back(t + last >= horizon && seed % 2 == 0 ? last : last + c.tau_hw);
      const FailureTrace trace(std::move(gaps), horizon);
      SCOPED_TRACE(::testing::Message() << c.name << " costs, seed " << seed);

      expect_kernel_matches_event_loop(jobs, AlternateAtFailure(), trace);
      for (const int k : {2, 3, 30, 60}) {
        expect_kernel_matches_event_loop(jobs, ShirazPairScheduler(k), trace);
      }

      EngineConfig cfg;
      cfg.t_total = horizon;
      cfg.flat_kernel = false;
      const Engine loop(reliability::Weibull::from_mtbf(0.6, hours(24.0)), cfg);
      constexpr int kLo = 1;
      constexpr std::size_t kCandidates = 64;
      std::vector<std::size_t> lw(kCandidates);
      std::vector<std::size_t> hw(kCandidates);
      flat_pair_sweep_rep(c.tau_lw, c.delta_lw, c.tau_hw, c.delta_hw, kLo, horizon,
                          trace, lw, hw);
      for (std::size_t i = 0; i < kCandidates; ++i) {
        const int k = kLo + static_cast<int>(i);
        const SimResult want = loop.replay(jobs, ShirazPairScheduler(k), trace);
        EXPECT_EQ(lw[i], want.apps[0].checkpoints) << "k = " << k;
        EXPECT_EQ(hw[i], want.apps[1].checkpoints) << "k = " << k;
      }
      ++traces_checked;
    }
  }
  EXPECT_EQ(traces_checked, 3u * 8u);
}

TEST(FlatKernel, ClosedFormsMatchTheEventLoopForPhasesOfThousandsOfSegments) {
  // One-second light-weight segments in gaps of thousands of seconds: phase
  // budgets of a thousand segments and more end inside the walk a jump
  // covers, the second gap crosses 2^17, the third and the last end exactly
  // on a light-weight segment end (a failure, inclusive; the horizon,
  // exclusive), and the sweep's candidates switch around those ends.
  const EdgeCosts c{"fine", 0.75, 0.25, 7.5, 0.5};
  const std::vector<SimJob> jobs = edge_jobs(c);
  std::vector<Seconds> gaps{0x1p17 - 2000.5, 1500.0, 3000.0, 1024.5, 5000.25, 2047.0};
  Seconds t = 0.0;
  for (const Seconds gap : gaps) t += gap;
  const Seconds horizon = t + 4000.0;
  gaps.push_back(4100.0);
  const FailureTrace trace(std::move(gaps), horizon);

  EngineConfig cfg;
  cfg.t_total = horizon;
  cfg.flat_kernel = false;
  const Engine loop(reliability::Weibull::from_mtbf(0.6, hours(24.0)), cfg);
  expect_kernel_matches_event_loop(jobs, AlternateAtFailure(), trace);
  for (const int k : {1023, 1024, 1025, 1500, 2000, 2999, 3000, 4000}) {
    SCOPED_TRACE(::testing::Message() << "ShirazPair(" << k << ")");
    expect_kernel_matches_event_loop(jobs, ShirazPairScheduler(k), trace);
  }

  constexpr std::size_t kCandidates = 64;
  for (const int k_lo : {1000, 2980}) {
    std::vector<std::size_t> lw(kCandidates);
    std::vector<std::size_t> hw(kCandidates);
    flat_pair_sweep_rep(c.tau_lw, c.delta_lw, c.tau_hw, c.delta_hw, k_lo, horizon, trace,
                        lw, hw);
    for (std::size_t i = 0; i < kCandidates; ++i) {
      const int k = k_lo + static_cast<int>(i);
      const SimResult want = loop.replay(jobs, ShirazPairScheduler(k), trace);
      EXPECT_EQ(lw[i], want.apps[0].checkpoints) << "k = " << k;
      EXPECT_EQ(hw[i], want.apps[1].checkpoints) << "k = " << k;
    }
  }
}

TEST(FlatKernel, AppsThatCompleteNoSegmentOrOne) {
  // The baseline hands gap i to app i % 2. A failure exactly on the light
  // app's first segment end completes it (inclusive); the heavy app's gap
  // ends halfway through its first segment; the horizon comes before any
  // segment of the next turn ends. So a repetition credits one segment and
  // none, or none at all when the first gap wipes too.
  const EdgeCosts& c = kEdgeCosts[0];
  const std::vector<SimJob> jobs = edge_jobs(c);
  const Seconds lw_segment = c.tau_lw + c.delta_lw;
  const Seconds hw_half = 0.5 * c.tau_hw;
  for (const Seconds first : {lw_segment, std::nextafter(lw_segment, 0.0)}) {
    SCOPED_TRACE(::testing::Message() << std::hexfloat << "first gap " << first);
    const Seconds horizon = first + hw_half + 0.5 * lw_segment;
    const FailureTrace trace({first, hw_half, hours(1.0)}, horizon);
    expect_kernel_matches_event_loop(jobs, AlternateAtFailure(), trace);
    expect_kernel_matches_event_loop(jobs, ShirazPairScheduler(1), trace);
  }
  // No failure at all: one app runs to a horizon before its first segment
  // ends, or just past it.
  for (const Seconds horizon : {0.5 * lw_segment, lw_segment + 1.0}) {
    const FailureTrace trace({hours(10.0)}, horizon);
    expect_kernel_matches_event_loop(jobs, AlternateAtFailure(), trace);
  }
}

TEST(FlatKernel, SumsThatCrossManyPowersOfTwoInsideOnePhase) {
  // Sub-second periods through gaps of thousands of seconds: inside the
  // first gap's one phase the light app's useful work and io each climb
  // through some seventeen powers of two (about 155k segments), the heavy
  // app's through a dozen in the second, while the clock jumps across 2^12
  // and 2^13.
  const EdgeCosts c{"fine", 0.0123 + 0x1p-40, 0.00711, 0.37, 0.0209 + 0x1p-42};
  const std::vector<SimJob> jobs = edge_jobs(c);
  const FailureTrace trace({3000.3, 2500.25, 4000.0 + 0x1p-20, 1023.3},
                           3000.3 + 2500.25 + 4000.0 + 512.0);
  expect_kernel_matches_event_loop(jobs, AlternateAtFailure(), trace);
  for (const int k : {2, 1000, 300'000}) {
    SCOPED_TRACE(::testing::Message() << "ShirazPair(" << k << ")");
    expect_kernel_matches_event_loop(jobs, ShirazPairScheduler(k), trace);
  }
}

// ---------------------------------------------------------------------------
// Eligibility: every fallback rule, and that the dispatcher actually takes
// the event loop (identical results, policy errors preserved) when one fails.

TEST(FlatKernel, EligibilityRules) {
  const PolicyCase c = make_policy(PolicyKind::kShiraz, hours(5.0));
  EngineConfig cfg;
  cfg.t_total = hours(200.0);
  const TraceStore traces(make_engine(false), kSeed);

  // The engine's dispatch entry: nullptr when the kernel ran, else the
  // static reason of the first rule that failed.
  auto reason = [&](const EngineConfig& config, const std::vector<SimJob>& jobs,
                    const Scheduler& sched, const AlarmSource* alarms = nullptr) {
    SimResult out;
    return try_flat_replay(config, jobs, sched, alarms, config.sink,
                           traces.trace(0), &out);
  };

  EXPECT_STREQ(reason(cfg, c.jobs, *c.scheduler), nullptr);

  EngineConfig restart = cfg;
  restart.restart_cost = 30.0;
  EXPECT_STREQ(reason(restart, c.jobs, *c.scheduler), "restart cost is not free");

  EngineConfig switching = cfg;
  switching.switch_cost = 10.0;
  EXPECT_STREQ(reason(switching, c.jobs, *c.scheduler), "switch cost is not free");

  // An armed sink keeps the run on the kernel, which narrates it.
  obs::EventRecorder recorder;
  EngineConfig traced = cfg;
  traced.sink = &recorder;
  EXPECT_STREQ(reason(traced, c.jobs, *c.scheduler), nullptr);
  EXPECT_FALSE(recorder.events().empty());

  const predict::NullPredictor no_alarms;
  EXPECT_STREQ(reason(cfg, c.jobs, *c.scheduler, &no_alarms),
               "an alarm source is armed");

  EXPECT_STREQ(reason(cfg, {}, *c.scheduler), "no jobs");

  // Lazy Checkpointing is aperiodic: period() is nullopt by contract.
  std::vector<SimJob> lazy_jobs{SimJob::lazy("lazy", kDeltaLw, hours(5.0), 0.6),
                                SimJob::at_oci("hw", kDeltaHw, hours(5.0))};
  EXPECT_STREQ(reason(cfg, lazy_jobs, *c.scheduler),
               "job schedule is not periodic");

  // Policies with no phase plan: FirstApp idles after its count and the
  // naive switch depends on elapsed time, not on checkpoint counts.
  const char* const no_plan = "scheduler has no flat phase-plan form";
  EXPECT_STREQ(reason(cfg, c.jobs, FirstAppScheduler(5)), no_plan);
  EXPECT_STREQ(reason(cfg, c.jobs, NaiveTimeSwitchScheduler(hours(2.5))), no_plan);

  // Pair policies with the wrong app count fall back (and the event loop
  // then raises the policy's own error, tested below).
  std::vector<SimJob> three{SimJob::at_oci("a", 12.0, hours(5.0)),
                            SimJob::at_oci("b", 120.0, hours(5.0)),
                            SimJob::at_oci("c", 1200.0, hours(5.0))};
  EXPECT_STREQ(reason(cfg, three, *c.scheduler),
               "ShirazPairScheduler needs exactly two apps");
  const MultiSwitchScheduler multi(std::vector<int>{3, 4});
  EXPECT_STREQ(reason(cfg, c.jobs, multi),
               "MultiSwitchScheduler app count must be one more than its ks");
  const PairRotationScheduler rotation(
      std::vector<std::optional<int>>{14, std::nullopt});
  EXPECT_STREQ(reason(cfg, three, rotation),
               "PairRotationScheduler app count must be 2 * pairs");
}

TEST(FlatKernel, IneligibleConfigurationsFallBackToTheEventLoop) {
  // flat_kernel on vs off must agree even where the kernel cannot run: the
  // dispatcher takes the event loop, so arming the flag is always safe.
  const TraceStore traces(make_engine(false), kSeed);
  CampaignOptions opts;
  opts.traces = &traces;

  EngineConfig cfg;
  cfg.t_total = hours(200.0);
  cfg.switch_cost = 10.0;  // ineligible: the hand-off costs time
  const reliability::Weibull dist =
      reliability::Weibull::from_mtbf(0.6, hours(5.0));
  cfg.flat_kernel = true;
  const Engine flat(dist, cfg);
  cfg.flat_kernel = false;
  const Engine loop(dist, cfg);

  const PolicyCase c = make_policy(PolicyKind::kShiraz, hours(5.0));
  expect_identical(flat.run_many(c.jobs, *c.scheduler, kReps, kSeed, opts),
                   loop.run_many(c.jobs, *c.scheduler, kReps, kSeed, opts));

  // Wrong app count: the fallback preserves the policy's own error.
  std::vector<SimJob> three{SimJob::at_oci("a", 12.0, hours(5.0)),
                            SimJob::at_oci("b", 120.0, hours(5.0)),
                            SimJob::at_oci("c", 1200.0, hours(5.0))};
  const Engine eligible_engine = make_engine(true);
  EXPECT_THROW(
      eligible_engine.replay(three, *c.scheduler, traces.trace(0)),
      InvalidArgument);
}

TEST(FlatKernel, PredictiveReplayFallsBackAndMatches) {
  // An armed alarm source is ineligible; the predictive replay must be
  // untouched by the dispatcher.
  const TraceStore traces(make_engine(false), kSeed);
  const Engine flat = make_engine(true);
  const Engine loop = make_engine(false);
  const PolicyCase c = make_policy(PolicyKind::kShiraz, hours(5.0));
  const predict::OraclePredictor oracle(
      predict::OracleConfig{0.7, 0.2, minutes(20.0), hours(5.0)});
  Rng rng_a(kSeed);
  Rng rng_b(kSeed);
  const SimResult a =
      flat.replay(c.jobs, *c.scheduler, traces.trace(0), rng_a, &oracle);
  const SimResult b =
      loop.replay(c.jobs, *c.scheduler, traces.trace(0), rng_b, &oracle);
  expect_identical(a, b);
}

// ---------------------------------------------------------------------------
// The prefix-sum cache on FailureTrace (the kernel's SoA substrate).

TEST(FlatKernel, FailureTracePrefixSumsMatchSequentialAddition) {
  const Engine loop = make_engine(false);
  const TraceStore traces(loop, kSeed);
  const FailureTrace& trace = traces.trace(0);
  ASSERT_EQ(trace.fail_times().size(), trace.gaps().size());
  Seconds t = 0.0;
  for (std::size_t i = 0; i < trace.gaps().size(); ++i) {
    t += trace.gaps()[i];  // the exact accumulation a live clock performs
    EXPECT_EQ(trace.fail_time(i), t) << "draw " << i;
  }
  EXPECT_THROW(trace.fail_time(trace.gaps().size()), InvalidArgument);
}

}  // namespace
}  // namespace shiraz::sim
