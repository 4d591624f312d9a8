// fleet-10k: the exp_fleet_campaign shape through sched::WorkloadManager.
//
// Set-up generates two 10k-job arrival streams (Poisson, bursty). The timed
// window cycles through the six cells {Poisson, bursty} x {baseline, Shiraz
// random, Shiraz extreme}, each one run_distribution call of 8 repetitions
// on 2 workers; every call draws a fresh failure seed derived from --seed.
// The streams are part of the workload, like regime-sweep's scenario corpus:
// they are exp_fleet_campaign's default ones whatever the seed, because the
// manager's cost per cell varies by 10-20% from one stream pair to the next
// (queue lengths under bursts), which would drown a change's effect. Only
// the workload manager (and its analytical solves through core::SolverCache)
// does work here; the trace store, the replay kernel and serve are bypassed.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/solver_cache.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "reliability/weibull.h"
#include "sched/manager.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace shiraz;
using sched::Policy;
using sched::SlotFill;

constexpr std::size_t kJobs = 10'000;
constexpr std::size_t kReps = 8;
constexpr double kMtbfHours = 5.0;
constexpr double kInterarrivalHours = 10.0;
/// exp_fleet_campaign's default seed, which names its arrival streams.
constexpr std::uint64_t kStreamSeed = 20186060;
/// Upper bound on cells one window can start (seeds are derived up front).
constexpr std::size_t kMaxCells = 100'000;

struct PolicyRow {
  const char* key;
  Policy policy;
  SlotFill fill;
};
constexpr PolicyRow kRows[] = {
    {"baseline", Policy::kBaselineAlternate, SlotFill::kFcfs},
    {"shiraz_random", Policy::kShirazPairing, SlotFill::kFcfs},
    {"shiraz_extreme", Policy::kShirazPairing, SlotFill::kContrast},
};

struct PhaseResult {
  double elapsed_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time of the window
  std::uint64_t job_runs = 0;
  std::vector<double> cell_s;  ///< latency of each run_distribution cell
  std::vector<double> cell_cpu_s;  ///< and its CPU time, on every thread
};

/// The fleet-10k correctness gate on one cell's reported means.
std::string check_cell(const sched::CampaignDistribution& d) {
  if (d.completion_rate != 1.0) {
    return "completion rate " + std::to_string(d.completion_rate) + " != 1";
  }
  const sched::CampaignStats& m = d.mean;
  const double accounted =
      m.total_useful() + m.total_io() + m.total_lost() + m.idle;
  if (std::fabs(accounted - m.elapsed) > 1e-9 * m.elapsed) {
    return "useful + io + lost + idle = " + std::to_string(accounted) +
           " != elapsed " + std::to_string(m.elapsed);
  }
  return "";
}

}  // namespace

void run_fleet(const Options& opt, Report& report) {
  // Set-up: the arrival streams.
  FleetStreams streams = make_fleet_streams(kStreamSeed, kJobs, kInterarrivalHours);
  const std::vector<std::uint64_t> seeds = derived_seeds(opt.seed, kMaxCells, 3);

  sched::ManagerConfig cfg;
  cfg.horizon = hours(1.2 * kInterarrivalHours * static_cast<double>(kJobs) + 2000.0);
  cfg.nominal_mtbf = hours(kMtbfHours);
  const auto failures = reliability::Weibull::from_mtbf(0.6, hours(kMtbfHours));
  common::ThreadPool pool(kCampaignWorkers);
  const sched::CampaignRunOptions run_opts{kCampaignWorkers, &pool};
  // One cache for every window, so the warm-up fills it. A cache always
  // counts (into a private registry by default); this one counts into
  // `registry`, where the traced window reads its deltas.
  const auto registry = std::make_shared<obs::MetricsRegistry>();
  const auto cache = std::make_shared<const core::SolverCache>(registry);

  // One timed window. A traced window also arms the managers' counters and
  // records a fleet.cell span around each cell with a sched.manager child
  // around the run_distribution call.
  auto run_phase = [&](double seconds, SpanLog& spans,
                       obs::MetricsRegistry* manager_metrics,
                       std::size_t* seed_cursor) {
    std::vector<sched::WorkloadManager> managers;
    for (const PolicyRow& row : kRows) {
      sched::ManagerConfig c = cfg;
      c.slot_fill = row.fill;
      c.metrics = manager_metrics;
      managers.emplace_back(failures, c, cache);
    }
    PhaseResult out;
    const double start = now_s();
    const double cpu_start = process_cpu_s();
    const double deadline = start + seconds;
    for (std::size_t i = 0; now_s() < deadline && *seed_cursor < seeds.size();
         ++i) {
      const std::size_t row = i % std::size(kRows);
      const auto& stream = (i / std::size(kRows)) % 2 == 0 ? streams.poisson
                                                            : streams.bursty;
      const std::uint64_t request = *seed_cursor;
      const std::uint64_t seed = seeds[(*seed_cursor)++];
      const double t0 = now_s();
      const double cpu0 = process_cpu_s();
      const ScopedSpan cell(spans, "fleet.cell", request);
      sched::CampaignDistribution dist;
      {
        const ScopedSpan mgr(spans, "sched.manager", request, cell.id());
        dist = managers[row].run_distribution(stream, kRows[row].policy, kReps,
                                              seed, run_opts);
      }
      out.cell_s.push_back(now_s() - t0);
      out.cell_cpu_s.push_back(process_cpu_s() - cpu0);
      out.job_runs += kJobs * kReps;
      report.attempted(1);
      const std::string why = check_cell(dist);
      if (!why.empty()) {
        report.failed(1, std::string("fleet cell ") + kRows[row].key + ": " + why);
      }
    }
    out.elapsed_s = now_s() - start;
    out.cpu_s = process_cpu_s() - cpu_start;
    return out;
  };

  std::size_t seed_cursor = 0;
  SpanLog untraced(false);
  run_phase(kWarmupSeconds, untraced, nullptr, &seed_cursor);
  const PhaseResult plain = run_phase(opt.seconds, untraced, nullptr, &seed_cursor);
  const double rss_mb = peak_rss_mb();
  const double setup_s = time_setup([&] {
    streams = make_fleet_streams(kStreamSeed, kJobs, kInterarrivalHours);
  });
  const double plain_rate =
      static_cast<double>(plain.job_runs) / plain.elapsed_s;
  std::printf("fleet-10k: %zu cells, %llu job runs in %.3f s\n",
              plain.cell_s.size(),
              static_cast<unsigned long long>(plain.job_runs), plain.elapsed_s);
  report.latency("fleet cell", summarize_tail(plain.cell_s, 0.90));
  const TailSummary cell_cpu = summarize_tail(plain.cell_cpu_s, 0.90);
  report.latency("fleet cell CPU", cell_cpu);
  std::printf("fleet_job_runs_per_s %.3f 1/s\n", plain_rate);
  const double cpu_per_cell =
      plain.cpu_s / static_cast<double>(plain.cell_s.size());

  if (!report.trace()) {
    report.metric("setup_s", setup_s);
    report.metric("peak_rss_mb", rss_mb);
    report.metric("cpu_ms_per_op", cpu_per_cell * 1e3);
    report.metric("op_cpu_p90_ms", cell_cpu.tail * 1e3);
    return;
  }

  const core::SolverCache::Stats cache_before = cache->stats();
  SpanLog spans(true);
  const PhaseResult traced =
      run_phase(opt.seconds, spans, registry.get(), &seed_cursor);
  const core::SolverCache::Stats cache_after = cache->stats();
  const std::map<std::string, LayerTime> layers = layer_times(spans.spans());
  const auto counter = [&](const char* name) {
    return static_cast<double>(registry->counter(name).value());
  };
  report.metric("sched.manager.us", total_us(layers, "sched.manager"));
  report.metric("sched.manager.job_runs", static_cast<double>(traced.job_runs));
  report.metric("sched.jobs.completed",
                counter("shiraz_sched_jobs_completed_total"));
  report.metric("sched.solve.analytical",
                counter("shiraz_sched_solve_analytical_total"));
  report.metric("core.cache.hits",
                static_cast<double>(cache_after.hits - cache_before.hits));
  report.metric("core.cache.misses",
                static_cast<double>(cache_after.misses - cache_before.misses));
  report.metric("fleet.cell.self_us", self_us(layers, "fleet.cell"));
  report.metric("setup.arrivals.us", setup_s * 1e6);
  report.metric("trace.overhead",
                traced.cpu_s / static_cast<double>(traced.cell_s.size()) /
                        cpu_per_cell -
                    1.0);
  print_layers(layers);
  if (!write_spans(spans_path(opt), spans.spans())) {
    report.fail_run("cannot write " + spans_path(opt));
  }
}

}  // namespace perfbench
