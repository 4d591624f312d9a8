// regime-sweep: the switch-point search under correlated failure regimes.
//
// Set-up loads the scenario corpus (testdata/scenarios). The timed window
// runs passes; a pass visits the 7 scenarios and, per scenario, builds
// sim::TraceStore(regime, seed, horizon) and ensure(reps) — inside the
// window, because users pay it on every sweep — then, for each of the 4
// delta pairs, one baseline Engine::run_many(AlternateAtFailure) and one
// sim::replay_pair_sweep over k in [1, 64], and picks the fair k* by the
// rule find_fair_k_by_simulation applies. Every pass replays a fresh
// pre-derived seed. Campaigns borrow one 2-worker common::ThreadPool.
//
// Correctness: after the window, every search of every kCheckEvery-th pass
// is repeated on the event loop (flat_kernel = false) over a re-materialized
// store — the baseline campaign and the sweep's useful totals at k* must
// match bit for bit. (The event loop is ~40x slower than the kernel; a
// sample keeps the check to a fraction of the window.)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "reliability/regimes.h"
#include "scenario/scenario.h"
#include "sim/engine.h"
#include "sim/optimizer.h"
#include "sim/trace.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace shiraz;

constexpr std::size_t kReps = 64;
constexpr int kMaxK = 64;
constexpr std::size_t kMaxPasses = 100'000;
constexpr std::size_t kCheckEvery = 4;
const char* const kScenarioDir = "testdata/scenarios";

/// What one search chose, kept for the post-window bit check.
struct Search {
  std::size_t pass = 0;
  std::size_t scenario = 0;
  std::size_t pair = 0;
  std::uint64_t seed = 0;
  int k = 0;  ///< the fair k*, or the closest candidate when none is material
  bool beneficial = false;  ///< the gain at k is material: k is a fair k*
  sim::SweepUseful at_k;
  sim::SimResult baseline;
};

/// find_fair_k_by_simulation's rule: the k nearest the delta_LW = delta_HW
/// crossing (first wins ties). Returns that k and whether its total gain is
/// material (> 1e-4 of the baseline's useful work).
std::pair<int, bool> fair_k(const std::vector<sim::SweepUseful>& sweep,
                            const sim::SimResult& base) {
  double best_gap = std::numeric_limits<double>::infinity();
  int best_k = 1;
  double best_total = 0.0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double dlw = sweep[i].lw - base.apps[0].useful;
    const double dhw = sweep[i].hw - base.apps[1].useful;
    const double gap = std::fabs(dlw - dhw);
    if (gap < best_gap) {
      best_gap = gap;
      best_k = static_cast<int>(i) + 1;
      best_total = dlw + dhw;
    }
  }
  const double materiality = 1e-4 * (base.apps[0].useful + base.apps[1].useful);
  return {best_k, best_total > materiality};
}

bool same_bits(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.apps.size() != b.apps.size()) return false;
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    if (a.apps[i].useful != b.apps[i].useful || a.apps[i].io != b.apps[i].io ||
        a.apps[i].lost != b.apps[i].lost) {
      return false;
    }
  }
  return a.wall == b.wall && a.idle == b.idle && a.truncated == b.truncated &&
         a.failures == b.failures && a.switches == b.switches;
}

double resident_bytes(obs::MetricsRegistry* registry) {
  return registry == nullptr
             ? 0.0
             : registry->gauge("shiraz_trace_resident_bytes").value();
}

struct PhaseResult {
  double elapsed_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time of the window
  std::uint64_t campaigns = 0;
  std::vector<double> search_s;  ///< latency of each (scenario, pair) search
  std::vector<double> search_cpu_s;  ///< and its CPU time, on every thread
  std::vector<Search> searches;
  double max_resident_bytes = 0.0;
};

}  // namespace

void run_regime_sweep(const Options& opt, Report& report) {
  const std::vector<scenario::Scenario> scenarios =
      scenario::load_dir(kScenarioDir);
  std::vector<reliability::FailureRegimePtr> regimes;
  for (const scenario::Scenario& sc : scenarios) regimes.push_back(sc.make_regime());
  const std::vector<DeltaPair>& pairs = sweep_delta_pairs();
  const std::vector<std::uint64_t> seeds = derived_seeds(opt.seed, kMaxPasses, 2);
  common::ThreadPool pool(kCampaignWorkers);

  auto make_engine = [&](std::size_t s, bool flat_kernel) {
    sim::EngineConfig ecfg;
    ecfg.t_total = scenarios[s].horizon;
    ecfg.flat_kernel = flat_kernel;
    return sim::Engine(regimes[s]->sampler(scenarios[s].horizon), ecfg);
  };
  std::vector<sim::Engine> engines;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    engines.push_back(make_engine(s, true));
  }
  auto jobs_for = [&](std::size_t s, std::size_t p) {
    const Seconds mtbf = scenarios[s].nominal_mtbf;
    return std::vector<sim::SimJob>{
        sim::SimJob::at_oci("light", pairs[p].lw, mtbf),
        sim::SimJob::at_oci("heavy", pairs[p].hw, mtbf)};
  };

  // One timed window over passes of (scenario, pair) searches.
  auto run_phase = [&](double seconds, SpanLog& spans,
                       obs::MetricsRegistry* registry, std::size_t* pass_cursor) {
    PhaseResult out;
    const double start = now_s();
    const double cpu_start = process_cpu_s();
    const double deadline = start + seconds;
    std::size_t visit = 0;
    while (now_s() < deadline && *pass_cursor < seeds.size()) {
      const std::size_t s = visit % scenarios.size();
      const std::uint64_t seed = seeds[*pass_cursor];
      const std::uint64_t request = *pass_cursor * scenarios.size() + s;
      const ScopedSpan scope(spans, "sweep.scenario", request);
      // The resident-bytes gauge only grows, so this store's bytes are the
      // difference across its materialization.
      const double resident_before = resident_bytes(registry);
      std::unique_ptr<sim::TraceStore> traces;
      {
        const ScopedSpan trace_span(spans, "sim.trace", request, scope.id());
        traces = std::make_unique<sim::TraceStore>(*regimes[s], seed,
                                                   scenarios[s].horizon);
        traces->set_metrics(registry);
        traces->ensure(kReps);
      }
      out.max_resident_bytes =
          std::max(out.max_resident_bytes,
                   resident_bytes(registry) - resident_before);
      sim::CampaignOptions copts;
      copts.workers = kCampaignWorkers;
      copts.traces = traces.get();
      copts.pool = &pool;
      copts.metrics = registry;
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        const double t0 = now_s();
        const double cpu0 = process_cpu_s();
        const ScopedSpan search_span(spans, "sweep.search", request, scope.id());
        const std::vector<sim::SimJob> jobs = jobs_for(s, p);
        Search rec{*pass_cursor, s, p, seed, 0, false, {}, {}};
        {
          const ScopedSpan c(spans, "sim.campaign", request, search_span.id());
          rec.baseline = engines[s].run_many(jobs, sim::AlternateAtFailure{},
                                             kReps, seed, copts);
        }
        std::vector<sim::SweepUseful> sweep;
        {
          const ScopedSpan c(spans, "sim.sweep", request, search_span.id());
          sweep = sim::replay_pair_sweep(engines[s], jobs[0], jobs[1], 1, kMaxK,
                                         kReps, *traces, kCampaignWorkers, &pool);
        }
        std::tie(rec.k, rec.beneficial) = fair_k(sweep, rec.baseline);
        rec.at_k = sweep[static_cast<std::size_t>(rec.k - 1)];
        out.searches.push_back(rec);
        out.search_s.push_back(now_s() - t0);
        out.search_cpu_s.push_back(process_cpu_s() - cpu0);
        out.campaigns += kReps * (1 + static_cast<std::uint64_t>(kMaxK));
      }
      if (++visit % scenarios.size() == 0) ++*pass_cursor;
    }
    if (visit % scenarios.size() != 0) ++*pass_cursor;
    out.elapsed_s = now_s() - start;
    out.cpu_s = process_cpu_s() - cpu_start;
    return out;
  };

  // The bit check: each search replayed on the event loop, outside the
  // window, on every core.
  common::ThreadPool check_pool(
      std::max(1u, std::thread::hardware_concurrency()));
  auto verify = [&](const std::vector<Search>& searches) {
    std::vector<sim::Engine> loops;
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      loops.push_back(make_engine(s, false));
    }
    std::unique_ptr<sim::TraceStore> traces;
    const Search* store_of = nullptr;  // the search `traces` was built for
    report.attempted(searches.size());
    for (const Search& rec : searches) {
      if (rec.pass % kCheckEvery != 0) continue;
      if (store_of == nullptr || store_of->seed != rec.seed ||
          store_of->scenario != rec.scenario) {
        traces = std::make_unique<sim::TraceStore>(
            *regimes[rec.scenario], rec.seed, scenarios[rec.scenario].horizon);
        store_of = &rec;
      }
      sim::CampaignOptions copts;
      copts.workers = check_pool.worker_count();
      copts.traces = traces.get();
      copts.pool = &check_pool;
      const std::vector<sim::SimJob> jobs = jobs_for(rec.scenario, rec.pair);
      const sim::Engine& loop = loops[rec.scenario];
      const sim::SimResult base = loop.run_many(jobs, sim::AlternateAtFailure{},
                                                kReps, rec.seed, copts);
      const sim::SimResult sz = loop.run_many(
          jobs, sim::ShirazPairScheduler(rec.k), kReps, rec.seed, copts);
      const char* differs =
          !same_bits(base, rec.baseline)     ? "baseline campaign"
          : sz.apps[0].useful != rec.at_k.lw ? "sweep light-weight useful"
          : sz.apps[1].useful != rec.at_k.hw ? "sweep heavy-weight useful"
                                             : nullptr;
      if (differs != nullptr) {
        char detail[160];
        std::snprintf(detail, sizeof(detail),
                      " (kernel %.17g / %.17g, event loop %.17g / %.17g)",
                      rec.at_k.lw, rec.at_k.hw, sz.apps[0].useful,
                      sz.apps[1].useful);
        report.failed(1, "regime-sweep " + scenarios[rec.scenario].id +
                             " pair " + std::to_string(rec.pair) + " k=" +
                             std::to_string(rec.k) + ": " + differs +
                             " differs from the event loop" + detail);
      }
    }
  };

  std::size_t pass_cursor = 0;
  SpanLog untraced(false);
  run_phase(kWarmupSeconds, untraced, nullptr, &pass_cursor);
  const PhaseResult plain = run_phase(opt.seconds, untraced, nullptr, &pass_cursor);
  const double rss_mb = peak_rss_mb();
  const double setup_s = time_setup([] { scenario::load_dir(kScenarioDir); });
  verify(plain.searches);
  const double plain_rate =
      static_cast<double>(plain.campaigns) / plain.elapsed_s;
  const auto beneficial = std::count_if(
      plain.searches.begin(), plain.searches.end(),
      [](const Search& s) { return s.beneficial; });
  std::printf("regime-sweep: %zu searches (%td with a fair k*), %llu campaigns "
              "in %.3f s\n",
              plain.searches.size(), beneficial,
              static_cast<unsigned long long>(plain.campaigns), plain.elapsed_s);
  report.latency("switch-point search", summarize_tail(plain.search_s, 0.90));
  const TailSummary search_cpu = summarize_tail(plain.search_cpu_s, 0.90);
  report.latency("search CPU", search_cpu);
  std::printf("sweep_campaigns_per_s %.3f 1/s\n", plain_rate);
  const double cpu_per_search =
      plain.cpu_s / static_cast<double>(plain.searches.size());

  if (!report.trace()) {
    report.metric("setup_s", setup_s);
    report.metric("peak_rss_mb", rss_mb);
    report.metric("cpu_ms_per_op", cpu_per_search * 1e3);
    report.metric("op_cpu_p90_ms", search_cpu.tail * 1e3);
    return;
  }

  obs::MetricsRegistry registry;
  SpanLog spans(true);
  const PhaseResult traced =
      run_phase(opt.seconds, spans, &registry, &pass_cursor);
  verify(traced.searches);
  const std::map<std::string, LayerTime> layers = layer_times(spans.spans());
  const auto counter = [&](const char* name) {
    return static_cast<double>(registry.counter(name).value());
  };
  report.metric("sim.trace.us", total_us(layers, "sim.trace"));
  report.metric("sim.trace.gaps", counter("shiraz_trace_gaps_materialized_total"));
  report.metric("sim.trace.resident_bytes", traced.max_resident_bytes);
  report.metric("sim.campaign.us", total_us(layers, "sim.campaign"));
  report.metric("sim.kernel.replays", counter("shiraz_sim_kernel_replays_total"));
  report.metric("sim.event_loop.runs", counter("shiraz_sim_event_loop_runs_total"));
  report.metric("sim.sweep.us", total_us(layers, "sim.sweep"));
  report.metric("sim.sweep.campaigns",
                static_cast<double>(traced.searches.size() * kReps * kMaxK));
  report.metric("sweep.scenario.self_us", self_us(layers, "sweep.scenario"));
  report.metric("sweep.search.self_us", self_us(layers, "sweep.search"));
  report.metric("setup.scenarios.us", setup_s * 1e6);
  report.metric("trace.overhead",
                traced.cpu_s / static_cast<double>(traced.searches.size()) /
                        cpu_per_search -
                    1.0);
  print_layers(layers);
  if (!write_spans(spans_path(opt), spans.spans())) {
    report.fail_run("cannot write " + spans_path(opt));
  }
}

}  // namespace perfbench
