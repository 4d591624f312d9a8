// Engine throughput micro-benchmark: what are the failure-trace replay cache
// and the flat replay kernel worth on the fig10-shaped switch-point sweep, and
// what does arming the metrics registry cost there?
//
// The workload is the paper's working point (MTBF 5 h Weibull beta=0.6,
// campaign 1000 h, pair delta 18 s / 1800 s at OCI) swept over the baseline
// plus k in [20, 32] — one baseline campaign and 13 Shiraz campaigns over the
// same `reps` failure streams. Eight evaluation modes, all bit-identical
// (checked here and enforced by tests/sim/trace_replay_test.cpp,
// tests/sim/kernel_test.cpp and tests/obs/metrics_campaign_test.cpp):
//
//   sampled   every campaign re-samples its failure streams draw by draw
//             (the historical path: per-draw dispatch, per-campaign pools)
//   replayed  a sim::TraceStore samples each stream once (build time is
//             charged to this mode) and every campaign replays plain arrays
//             through the event loop (flat_kernel off)
//   sweep     TraceStore + sim::replay_pair_sweep on the event loop — the
//             whole k range in one replayed pass sharing each gap's
//             light-weight prefix
//   kernel    TraceStore + the flat replay kernel (sim/kernel.h): baseline
//             campaigns through the engine's kernel dispatch, the k range
//             through the kernel sweep — batched passes over the trace's
//             prefix sums, no virtual dispatch in the inner loops
//   audited-loop / audited-kernel
//             the audit serve's pair_whatif ships: TraceStore, then every
//             repetition of every campaign replays serially with an
//             obs::InvariantAuditor armed as the engine's sink and is
//             verified against its own result; each campaign is the
//             rep-order mean of its audited results. Timed on the event
//             loop (flat_kernel off) and on the narrating kernel; both must
//             see the same number of events. `--jobs` does not apply.
//   kernel-campaigns / kernel-armed
//             the metrics-overhead pair: the baseline and every k as its own
//             Engine::run_many campaign on the flat kernel, over one
//             TraceStore materialized before timing. kernel-armed passes a
//             fresh obs::MetricsRegistry through CampaignOptions::metrics
//             each round (the store itself stays unarmed); runs alternate
//             unarmed, armed, unarmed, ... so host noise hits both alike,
//             and each unarmed run and the armed run after it form a pair.
//             The armed registry must count exactly (baseline + |k|) x reps
//             repetitions per run, every one on the kernel and none on the
//             event loop, and more gaps than repetitions: arming metrics
//             observes and must never move a campaign off the kernel.
//
// Reported: wall seconds of a mode's fastest run, campaigns/s (campaign =
// one policy x one rep run) and effective gaps/s (failure draws the
// equivalent sampled campaigns perform). `--json=FILE` dumps the numbers for
// CI trend tracking.
//
// Each mode runs its work again and again, in `--repeat` rounds of at least
// 50 ms each, and reports its fastest run. The rounds go round-robin over
// the modes, and the metrics pair alternates run by run, so the fastest
// modes (the kernel's ~2 ms at CI's 64 reps) get dozens of chances at a clean
// run spread over the whole bench, not three back to back that one burst of
// host steal can spoil.
//
// `--check` turns the report into a gate: the fastest runs are compared (so
// one scheduling hiccup cannot fail the build) — except for the metrics
// pair, whose modes each time only ~5 ms of work per run, so the ratio of
// their fastest runs scattered by a few percent from process to process. Its
// ratio is the median, over every pair of every round, of the unarmed/armed
// time ratio within the pair; host noise moves only the pairs it lands in.
// The exit code is nonzero
// if any mode's output diverges bit-wise from the sampled mode (so armed ==
// unarmed too), OR the armed counts are not exact,
// OR any committed speedup floor is missed. The floors are on
// mode-vs-mode ratios of back-to-back runs of the same workload on the same
// machine — load-insensitive, unlike absolute campaigns/s. CI runs this on
// every push, so a change that slows the kernel below its floor fails the
// build exactly like a correctness bug.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "common/statistics.h"
#include "obs/audit_sim.h"
#include "obs/metrics.h"
#include "reliability/weibull.h"
#include "sim/optimizer.h"
#include "sim/trace.h"

using namespace shiraz;

namespace {

// Committed speedup floors enforced by --check, set below the observed
// steady-state ratios (see DESIGN.md §10) so only a real regression — not
// machine noise on the fastest-run timings — can cross them. Replay saves the
// RNG draws but still walks the event loop, so its steady-state gain is
// modest (~1.2x); its floor just pins "replay is never slower than
// sampling". The sweep runs ~11x over sampled, and the kernel's floor is the
// acceptance bar itself: the flat kernel must beat the event-loop sweep 3x.
// An audited replay pays the auditor per event on both paths, so narration
// gains less than the bare kernel; its floor sits below the 2-3.5x observed.
// Armed metrics add a handful of relaxed u64 adds per repetition, buffered
// and applied on the campaign thread (~1.00x); 0.97 leaves room for timer
// noise only, on the median of the per-pair ratios.
constexpr double kFloorReplayVsSampled = 1.05;
constexpr double kFloorSweepVsSampled = 5.0;
constexpr double kFloorKernelVsSweep = 3.0;
constexpr double kFloorAuditedKernelVsLoop = 1.5;
constexpr double kFloorArmedVsUnarmed = 0.97;

// Shortest timed round: a mode's work runs again within a round until this
// much time has passed.
constexpr double kMinRoundSecs = 0.05;
// The metrics pair's round: ~30 back-to-back pairs of ~5 ms runs, so the
// median of ~90 per-pair ratios (CI's 3 rounds) scatters by ~0.5% between
// processes, against ~2% for the median of 30.
constexpr double kMetricsRoundSecs = 0.3;

struct SweepUsefulByK {
  double baseline_lw = 0.0;
  double baseline_hw = 0.0;
  std::vector<sim::SweepUseful> by_k;
};

struct ModeResult {
  const char* name;
  // Seconds of the fastest run of the mode's work.
  double secs = std::numeric_limits<double>::infinity();
  SweepUsefulByK useful;
};

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool identical(const SweepUsefulByK& a, const SweepUsefulByK& b) {
  if (a.baseline_lw != b.baseline_lw || a.baseline_hw != b.baseline_hw) {
    return false;
  }
  if (a.by_k.size() != b.by_k.size()) return false;
  for (std::size_t i = 0; i < a.by_k.size(); ++i) {
    if (a.by_k[i].lw != b.by_k[i].lw || a.by_k[i].hw != b.by_k[i].hw) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double mtbf_hours = flags.get_double("mtbf", 5.0);
  const bench::RunFlags run = bench::run_flags(flags, 200, 20181111);
  const auto& [reps, seed, workers] = run;
  const int k_lo = static_cast<int>(flags.get_int("k-lo", 20));
  const int k_hi = static_cast<int>(flags.get_int("k-hi", 32));
  const bool check = flags.get_bool("check", false);
  const std::size_t repeat = static_cast<std::size_t>(
      flags.get_int("repeat", check ? 3 : 1));
  const std::string json_path = flags.get("json", "");
  SHIRAZ_REQUIRE(1 <= k_lo && k_lo <= k_hi, "need 1 <= k-lo <= k-hi");
  SHIRAZ_REQUIRE(repeat >= 1, "need at least one timing repeat");

  const std::size_t n_k = static_cast<std::size_t>(k_hi - k_lo + 1);
  const std::size_t campaigns_per_sweep = (n_k + 1) * reps;

  bench::banner(
      "Micro — engine throughput, sampled vs replayed vs flat-kernel sweeps, "
      "armed metrics",
      "fig10 working point: MTBF " + fmt(mtbf_hours, 0) +
          " h, campaign 1000 h, delta 18 s / 1800 s, baseline + k in [" +
          std::to_string(k_lo) + ", " + std::to_string(k_hi) + "], " +
          run.describe() +
          (check ? ", --check (fastest run of " + std::to_string(repeat) +
                       " rounds)"
                 : ""));

  const Seconds mtbf = hours(mtbf_hours);
  // Two engines over the same failure process: `loop` pins the historical
  // event loop (the sampled/replayed/sweep modes it has always measured);
  // `fast` leaves the default flat-kernel dispatch on for the kernel mode.
  sim::EngineConfig ecfg;
  ecfg.t_total = hours(1000.0);
  ecfg.flat_kernel = false;
  const sim::Engine loop(reliability::Weibull::from_mtbf(0.6, mtbf), ecfg);
  ecfg.flat_kernel = true;
  const sim::Engine fast(reliability::Weibull::from_mtbf(0.6, mtbf), ecfg);
  const sim::SimJob lw = sim::SimJob::at_oci("lw", 18.0, mtbf);
  const sim::SimJob hw = sim::SimJob::at_oci("hw", 1800.0, mtbf);
  const std::vector<sim::SimJob> jobs{lw, hw};
  const sim::AlternateAtFailure baseline;

  bench::BenchCampaigns campaigns(workers, reps);
  std::size_t gaps_per_rep_total = 0;

  // -- sampled: the historical per-draw path, fresh pool per campaign.
  auto run_sampled = [&]() {
    SweepUsefulByK u;
    const sim::SimResult base = loop.run_many(jobs, baseline, reps, seed, workers);
    u.baseline_lw = base.apps[0].useful;
    u.baseline_hw = base.apps[1].useful;
    for (int k = k_lo; k <= k_hi; ++k) {
      const sim::ShirazPairScheduler shiraz(k);
      const sim::SimResult r = loop.run_many(jobs, shiraz, reps, seed, workers);
      u.by_k.push_back({r.apps[0].useful, r.apps[1].useful});
    }
    return u;
  };

  // -- replayed: sample once into a store (build time charged here), then
  //    run the same campaigns as event-loop array walks on one shared pool.
  auto run_replayed = [&]() {
    SweepUsefulByK u;
    const sim::TraceStore traces(loop, seed);
    const sim::CampaignOptions copts = campaigns.replay(traces);
    const sim::SimResult base = loop.run_many(jobs, baseline, reps, seed, copts);
    u.baseline_lw = base.apps[0].useful;
    u.baseline_hw = base.apps[1].useful;
    for (int k = k_lo; k <= k_hi; ++k) {
      const sim::ShirazPairScheduler shiraz(k);
      const sim::SimResult r = loop.run_many(jobs, shiraz, reps, seed, copts);
      u.by_k.push_back({r.apps[0].useful, r.apps[1].useful});
    }
    gaps_per_rep_total = traces.total_gaps();
    return u;
  };

  // -- sweep: store + one event-loop replayed pass over the whole k range.
  auto run_sweep = [&]() {
    SweepUsefulByK u;
    const sim::TraceStore traces(loop, seed);
    const sim::CampaignOptions copts = campaigns.replay(traces);
    const sim::SimResult base = loop.run_many(jobs, baseline, reps, seed, copts);
    u.baseline_lw = base.apps[0].useful;
    u.baseline_hw = base.apps[1].useful;
    u.by_k = sim::replay_pair_sweep(loop, lw, hw, k_lo, k_hi, reps, traces,
                                    workers, copts.pool);
    return u;
  };

  // -- kernel: store + flat kernel for everything — the baseline campaigns
  //    dispatch to sim::try_flat_replay, the k range to the kernel sweep.
  auto run_kernel = [&]() {
    SweepUsefulByK u;
    const sim::TraceStore traces(fast, seed);
    const sim::CampaignOptions copts = campaigns.replay(traces);
    const sim::SimResult base = fast.run_many(jobs, baseline, reps, seed, copts);
    u.baseline_lw = base.apps[0].useful;
    u.baseline_hw = base.apps[1].useful;
    u.by_k = sim::replay_pair_sweep(fast, lw, hw, k_lo, k_hi, reps, traces,
                                    workers, copts.pool);
    return u;
  };

  // One timed round: the work runs until kMinRoundSecs have passed.
  auto time_round = [](ModeResult& m, const std::function<SweepUsefulByK()>& fn) {
    const double start = now_secs();
    double t0 = start;
    double t1 = start;
    do {
      m.useful = fn();  // identical on every run
      t1 = now_secs();
      m.secs = std::min(m.secs, t1 - t0);
      t0 = t1;
    } while (t1 - start < kMinRoundSecs);
  };
  // -- audited: serve's audit shape — a serial per-rep replay with the
  //    auditor as the engine's sink, verified per rep, campaigns summarized
  //    in rep order. `audited_events[flat_kernel]` keeps each path's event
  //    count for the cross-check below.
  std::uint64_t audited_events[2] = {0, 0};
  auto run_audited = [&](bool flat_kernel) {
    SweepUsefulByK u;
    obs::InvariantAuditor auditor;
    sim::EngineConfig acfg = ecfg;
    acfg.flat_kernel = flat_kernel;
    acfg.sink = &auditor;
    const sim::Engine audited(reliability::Weibull::from_mtbf(0.6, mtbf), acfg);
    const sim::TraceStore traces(audited, seed);
    traces.ensure(reps);
    std::uint64_t events = 0;
    auto campaign = [&](const sim::Scheduler& policy) {
      std::vector<sim::SimResult> results(reps);
      for (std::size_t r = 0; r < reps; ++r) {
        auditor.clear();
        results[r] = audited.replay(jobs, policy, traces.trace(r));
        obs::verify_against(auditor, results[r]);  // throws on divergence
        events += auditor.events_seen();
      }
      return sim::summarize_campaign(results).mean;
    };
    const sim::SimResult base = campaign(baseline);
    u.baseline_lw = base.apps[0].useful;
    u.baseline_hw = base.apps[1].useful;
    for (int k = k_lo; k <= k_hi; ++k) {
      const sim::SimResult r = campaign(sim::ShirazPairScheduler(k));
      u.by_k.push_back({r.apps[0].useful, r.apps[1].useful});
    }
    audited_events[flat_kernel ? 1 : 0] = events;
    return u;
  };

  // -- kernel-campaigns / kernel-armed: per-candidate kernel campaigns over
  //    one pre-materialized store, unarmed and armed runs alternating.
  const sim::TraceStore campaign_traces(fast, seed);
  campaign_traces.ensure(reps);
  auto run_campaigns = [&](obs::MetricsRegistry* registry) {
    SweepUsefulByK u;
    sim::CampaignOptions copts = campaigns.replay(campaign_traces);
    copts.metrics = registry;
    const sim::SimResult base = fast.run_many(jobs, baseline, reps, seed, copts);
    u.baseline_lw = base.apps[0].useful;
    u.baseline_hw = base.apps[1].useful;
    for (int k = k_lo; k <= k_hi; ++k) {
      const sim::ShirazPairScheduler shiraz(k);
      const sim::SimResult r = fast.run_many(jobs, shiraz, reps, seed, copts);
      u.by_k.push_back({r.apps[0].useful, r.apps[1].useful});
    }
    return u;
  };

  // Rounds go round-robin over the modes, so each mode's rounds spread over
  // the whole run: a slow stretch of the host costs every mode one round
  // instead of one mode all of its rounds.
  std::vector<ModeResult> modes{{"sampled"},        {"replayed"},
                                {"sweep"},          {"kernel"},
                                {"audited-loop"},   {"audited-kernel"},
                                {"kernel-campaigns"}, {"kernel-armed"}};
  const std::function<SweepUsefulByK()> work[] = {
      run_sampled, run_replayed, run_sweep, run_kernel,
      [&] { return run_audited(false); }, [&] { return run_audited(true); }};
  ModeResult& unarmed = modes[6];
  ModeResult& armed = modes[7];
  struct ArmedCounts {
    std::uint64_t runs = 0, reps = 0, kernel = 0, event_loop = 0, gaps = 0;
  } counts;
  // unarmed / armed seconds of each back-to-back pair, over every round.
  std::vector<double> armed_pair_ratios;
  for (std::size_t t = 0; t < repeat; ++t) {
    for (std::size_t i = 0; i < std::size(work); ++i) time_round(modes[i], work[i]);
    // The metrics pair alternates run by run within one round, so host noise
    // hits both alike. Fresh registry per round, so the counts below are one
    // round's.
    obs::MetricsRegistry registry;
    std::size_t runs = 0;
    const double start = now_secs();
    double t0 = start;
    double t2 = start;
    do {
      unarmed.useful = run_campaigns(nullptr);
      const double t1 = now_secs();
      armed.useful = run_campaigns(&registry);
      t2 = now_secs();
      unarmed.secs = std::min(unarmed.secs, t1 - t0);
      armed.secs = std::min(armed.secs, t2 - t1);
      armed_pair_ratios.push_back((t1 - t0) / (t2 - t1));
      t0 = t2;
      ++runs;
    } while (t2 - start < kMetricsRoundSecs);
    counts = {runs, registry.counter("shiraz_sim_reps_total").value(),
              registry.counter("shiraz_sim_kernel_replays_total").value(),
              registry.counter("shiraz_sim_event_loop_runs_total").value(),
              registry.counter("shiraz_sim_gaps_total").value()};
  }

  // Every mode must produce the same bits — replay and the kernel are
  // optimizations, never approximations.
  bool bit_identical = true;
  for (std::size_t i = 1; i < modes.size(); ++i) {
    if (!identical(modes[i].useful, modes[0].useful)) {
      bit_identical = false;
      std::printf("BIT-IDENTITY FAILURE: mode '%s' diverges from 'sampled'\n",
                  modes[i].name);
    }
  }
  // One run of the armed work is exactly `campaigns_per_sweep` repetitions,
  // all on the kernel, each consuming its failures + 1 gaps; at MTBF 5 h over
  // 1000 h every repetition sees failures, so gaps > repetitions. The last
  // armed round ran the work `counts.runs` times.
  const std::uint64_t want = counts.runs * campaigns_per_sweep;
  const bool counts_exact = counts.reps == want && counts.kernel == want &&
                            counts.event_loop == 0 && counts.gaps > want;
  if (!counts_exact) {
    std::printf("COUNT FAILURE: armed round (%llu runs) counted %llu reps, "
                "%llu kernel, %llu event loop, %llu gaps; expected %llu, %llu, "
                "0, > %llu\n",
                static_cast<unsigned long long>(counts.runs),
                static_cast<unsigned long long>(counts.reps),
                static_cast<unsigned long long>(counts.kernel),
                static_cast<unsigned long long>(counts.event_loop),
                static_cast<unsigned long long>(counts.gaps),
                static_cast<unsigned long long>(want),
                static_cast<unsigned long long>(want),
                static_cast<unsigned long long>(want));
  }
  // The narrating kernel must emit exactly as many events as the loop.
  const bool events_match = audited_events[0] == audited_events[1];
  if (!events_match) {
    std::printf("EVENT-COUNT FAILURE: audited-kernel saw %llu events, "
                "audited-loop %llu\n",
                static_cast<unsigned long long>(audited_events[1]),
                static_cast<unsigned long long>(audited_events[0]));
  }

  const double gaps_per_sweep =
      static_cast<double>(gaps_per_rep_total) * static_cast<double>(n_k + 1);
  Table table({"mode", "time (s)", "campaigns/s", "eff. gaps/s", "speedup"});
  for (const ModeResult& m : modes) {
    table.add_row({m.name, fmt(m.secs, 3),
                   fmt(static_cast<double>(campaigns_per_sweep) / m.secs, 0),
                   fmt(gaps_per_sweep / m.secs, 0),
                   fmt(modes[0].secs / m.secs, 2) + "x"});
  }
  bench::print_table(table, flags);

  const double speedup_replay = modes[0].secs / modes[1].secs;
  const double speedup_sweep = modes[0].secs / modes[2].secs;
  const double speedup_kernel = modes[0].secs / modes[3].secs;
  const double speedup_kernel_vs_sweep = modes[2].secs / modes[3].secs;
  const double speedup_audited_kernel_vs_loop = modes[4].secs / modes[5].secs;
  const double speedup_armed_vs_unarmed = percentile(armed_pair_ratios, 0.5);
  const double speedup_store =
      std::max({speedup_replay, speedup_sweep, speedup_kernel});
  std::printf("\n%zu campaigns (%zu policies x %zu reps), %zu gaps per "
              "repetition set; bit-identity across modes: %s; audited events "
              "%llu (kernel) vs %llu (loop): %s; armed counts: %s (%llu runs: "
              "%llu reps, %llu kernel, %llu gaps); armed vs unarmed: %.3fx, "
              "median of %zu pairs.\n",
              campaigns_per_sweep, n_k + 1, reps, gaps_per_rep_total,
              bit_identical ? "OK" : "FAILED",
              static_cast<unsigned long long>(audited_events[1]),
              static_cast<unsigned long long>(audited_events[0]),
              events_match ? "OK" : "FAILED", counts_exact ? "OK" : "FAILED",
              static_cast<unsigned long long>(counts.runs),
              static_cast<unsigned long long>(counts.reps),
              static_cast<unsigned long long>(counts.kernel),
              static_cast<unsigned long long>(counts.gaps),
              speedup_armed_vs_unarmed, armed_pair_ratios.size());
  bench::note("Replay removes the per-draw dispatch and RNG work; the sweep "
              "evaluator shares each gap's light-weight prefix across the "
              "whole k range; the flat kernel additionally strips the "
              "per-segment virtual dispatch and event bookkeeping into a "
              "batched pass over the trace's prefix-sum arrays, and narrates "
              "the event loop's exact stream when an auditor is armed. Armed "
              "metrics count per repetition, buffered and applied in "
              "repetition order on the campaign thread.");

  // The --check gate: committed floors on mode-vs-mode ratios.
  bool floors_ok = true;
  if (check) {
    struct Floor {
      const char* name;
      double value;
      double floor;
    };
    const Floor floors[] = {
        {"replayed_vs_sampled", speedup_replay, kFloorReplayVsSampled},
        {"sweep_vs_sampled", speedup_sweep, kFloorSweepVsSampled},
        {"kernel_vs_sweep", speedup_kernel_vs_sweep, kFloorKernelVsSweep},
        {"audited_kernel_vs_loop", speedup_audited_kernel_vs_loop,
         kFloorAuditedKernelVsLoop},
        {"armed_vs_unarmed", speedup_armed_vs_unarmed, kFloorArmedVsUnarmed},
    };
    std::printf("\nSpeedup floors (--check):\n");
    for (const Floor& f : floors) {
      const bool ok = f.value >= f.floor;
      floors_ok = floors_ok && ok;
      std::printf("  %-22s %7.3fx  (floor %.2fx)  %s\n", f.name, f.value,
                  f.floor, ok ? "ok" : "REGRESSION");
    }
  }

  if (!json_path.empty()) {
    // Historical document shape (BENCH_engine.json predates the shared
    // "shiraz-bench-v1" schema): the top-level keys below are trended by CI,
    // so existing keys stay as they are and new modes only append.
    JsonWriter w;
    w.begin_object();
    w.kv("bench", "micro_engine_throughput");
    w.key("config").begin_object();
    w.kv("mtbf_hours", mtbf_hours);
    w.kv("horizon_hours", 1000);
    w.kv("delta_lw_s", 18);
    w.kv("delta_hw_s", 1800);
    w.kv("k_lo", k_lo);
    w.kv("k_hi", k_hi);
    w.kv("reps", static_cast<std::uint64_t>(reps));
    w.kv("jobs", static_cast<std::uint64_t>(workers));
    w.kv("seed", seed);
    w.kv("timing_repeats", static_cast<std::uint64_t>(repeat));
    w.kv("min_round_seconds", kMinRoundSecs);
    w.kv("metrics_round_seconds", kMetricsRoundSecs);
    w.end_object();
    w.kv("campaigns_per_sweep", static_cast<std::uint64_t>(campaigns_per_sweep));
    w.kv("gaps_per_rep_set", static_cast<std::uint64_t>(gaps_per_rep_total));
    w.key("modes").begin_array();
    for (const ModeResult& m : modes) {
      w.begin_object();
      w.kv("name", m.name);
      w.kv("seconds", m.secs);
      w.kv("campaigns_per_sec", static_cast<double>(campaigns_per_sweep) / m.secs);
      w.kv("gaps_per_sec", gaps_per_sweep / m.secs);
      w.end_object();
    }
    w.end_array();
    w.kv("speedup_replay_vs_sampled", speedup_replay);
    w.kv("speedup_sweep_vs_sampled", speedup_sweep);
    w.kv("speedup_kernel_vs_sampled", speedup_kernel);
    w.kv("speedup_kernel_vs_sweep", speedup_kernel_vs_sweep);
    w.kv("speedup_audited_kernel_vs_loop", speedup_audited_kernel_vs_loop);
    w.kv("speedup_store_vs_sampled", speedup_store);
    w.kv("bit_identical", bit_identical);
    w.kv("audited_events", audited_events[1]);
    w.kv("audited_events_match", events_match);
    w.kv("speedup_armed_vs_unarmed", speedup_armed_vs_unarmed);
    w.key("armed_counts").begin_object();
    w.kv("reps", counts.reps);
    w.kv("kernel_replays", counts.kernel);
    w.kv("event_loop_runs", counts.event_loop);
    w.kv("gaps", counts.gaps);
    w.kv("runs", counts.runs);
    w.end_object();
    w.kv("armed_counts_exact", counts_exact);
    w.kv("armed_vs_unarmed_pairs",
         static_cast<std::uint64_t>(armed_pair_ratios.size()));
    w.key("check").begin_object();
    w.kv("enabled", check);
    w.kv("floor_replayed_vs_sampled", kFloorReplayVsSampled);
    w.kv("floor_sweep_vs_sampled", kFloorSweepVsSampled);
    w.kv("floor_kernel_vs_sweep", kFloorKernelVsSweep);
    w.kv("floor_audited_kernel_vs_loop", kFloorAuditedKernelVsLoop);
    w.kv("floor_armed_vs_unarmed", kFloorArmedVsUnarmed);
    w.kv("pass", bit_identical && events_match && counts_exact && floors_ok);
    w.end_object();
    w.end_object();

    const std::string& doc = w.str();
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    if (n != doc.size() || std::fclose(f) != 0) {
      std::fprintf(stderr, "short write to %s\n", json_path.c_str());
      return 1;
    }
    std::printf("Wrote %s.\n", json_path.c_str());
  }

  return bit_identical && events_match && counts_exact && floors_ok ? 0 : 1;
}
