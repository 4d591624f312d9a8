// Fleet-scale workload-manager campaign: the paper's §5 batch evaluation
// pushed to 10k arrival-driven jobs. A seeded generator produces the job
// stream from the nine-class fleet catalog under two load-matched arrival
// regimes (Poisson and bursty on/off); the workload manager then runs the
// stream under the conventional switch-at-failure policy and under Shiraz
// pairing with the paper's two pairing strategies — random (FCFS slot fill)
// and extreme (max checkpoint-cost contrast at slot-fill time).
//
// At this scale the interesting numbers are distributions, not means:
// reported are the completion rate and exact p50/p95/p99/max turnaround,
// p99 slowdown, and median makespan over all (job, repetition) samples.
// Repetitions shard across --jobs worker threads with per-rep RNG forks and
// rep-order merge, so every table cell and JSON byte is identical for any
// --jobs value; the bench self-checks that invariant by re-running one cell
// at a different worker count and exits nonzero on divergence (like
// micro_engine_throughput).
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "bench_util.h"
#include "core/solver_cache.h"
#include "reliability/weibull.h"
#include "sched/arrivals.h"
#include "sched/manager.h"

using namespace shiraz;
using namespace shiraz::sched;

namespace {

bool same_summary(const DistSummary& a, const DistSummary& b) {
  return a.count == b.count && a.mean == b.mean && a.p50 == b.p50 &&
         a.p95 == b.p95 && a.p99 == b.p99 && a.max == b.max;
}

bool same_dist(const CampaignDistribution& a, const CampaignDistribution& b) {
  return a.completion_rate == b.completion_rate &&
         same_summary(a.turnaround, b.turnaround) &&
         same_summary(a.slowdown, b.slowdown) &&
         same_summary(a.makespan, b.makespan) &&
         a.mean.makespan == b.mean.makespan &&
         a.mean.failures == b.mean.failures && a.mean.idle == b.mean.idle &&
         a.mean.elapsed == b.mean.elapsed &&
         a.mean.total_useful() == b.mean.total_useful() &&
         a.mean.total_io() == b.mean.total_io() &&
         a.mean.total_lost() == b.mean.total_lost();
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bench::RunFlags run = bench::run_flags(flags, 8, 20186060);
  const auto& [reps, seed, workers] = run;
  const std::size_t njobs = flags.get_count("njobs", 10'000);
  const double mtbf_hours = flags.get_double("mtbf", 5.0);
  const double interarrival_hours = flags.get_double("interarrival", 10.0);
  double horizon_hours = flags.get_double("horizon", 0.0);
  if (horizon_hours <= 0.0) {
    // Enough runway for the whole stream to arrive and the queue to drain.
    horizon_hours = 1.2 * interarrival_hours * static_cast<double>(njobs) + 2000.0;
  }
  SHIRAZ_REQUIRE(njobs >= 1, "need at least one job");

  bench::banner(
      "Fleet campaign — 10k arrival-driven jobs, baseline vs Shiraz pairing",
      std::to_string(njobs) + " jobs from the nine-class fleet catalog, "
          "Poisson vs bursty arrivals (mean gap " + fmt(interarrival_hours, 0) +
          " h), MTBF " + fmt(mtbf_hours, 0) + " h, horizon " +
          fmt(horizon_hours, 0) + " h, " + run.describe() +
          "; turnaround/slowdown percentiles are exact over all "
          "(job, rep) samples");

  const auto catalog = fleet_catalog();
  ManagerConfig cfg;
  cfg.horizon = hours(horizon_hours);
  cfg.nominal_mtbf = hours(mtbf_hours);
  const auto failures = reliability::Weibull::from_mtbf(0.6, hours(mtbf_hours));

  bench::BenchJson json("exp_fleet_campaign", run);
  json.config("njobs", static_cast<std::int64_t>(njobs));
  json.config("mtbf_hours", mtbf_hours);
  json.config("interarrival_hours", interarrival_hours);
  json.config("horizon_hours", horizon_hours);
  json.config("catalog_classes", static_cast<std::int64_t>(catalog.size()));

  // One pool for every cell; run_many/run_distribution borrow it.
  std::optional<common::ThreadPool> pool;
  if (workers > 1 && reps > 1) pool.emplace(std::min(workers, reps));
  const CampaignRunOptions opts{workers, pool ? &*pool : nullptr};
  // One solver cache for every cell: the Shiraz cells meet the same catalog
  // signatures, so each is solved once for the whole bench. Cached
  // solutions equal fresh solves, so sharing changes no reported bit.
  const auto cache = std::make_shared<const core::SolverCache>();

  struct PolicyRow {
    const char* label;
    const char* key;
    Policy policy;
    SlotFill fill;
  };
  const PolicyRow rows[] = {
      {"baseline (switch at failure)", "baseline", Policy::kBaselineAlternate,
       SlotFill::kFcfs},
      {"Shiraz random pairing", "shiraz_random", Policy::kShirazPairing,
       SlotFill::kFcfs},
      {"Shiraz extreme pairing", "shiraz_extreme", Policy::kShirazPairing,
       SlotFill::kContrast},
  };

  Table table({"regime", "policy", "completed", "turn p50 (h)", "turn p95 (h)",
               "turn p99 (h)", "turn max (h)", "slowdown p99",
               "makespan p50 (h)", "lost (h)", "ckpt I/O (h)"});
  bool bit_identical = true;

  for (const ArrivalRegime regime :
       {ArrivalRegime::kPoisson, ArrivalRegime::kBursty}) {
    ArrivalConfig acfg;
    acfg.regime = regime;
    acfg.mean_interarrival = hours(interarrival_hours);
    // The stream is a fixed input per regime: every policy runs the same
    // jobs, and every rep of a policy replays the same failure seed as the
    // other policies' matching rep (common random numbers).
    Rng arrival_rng =
        Rng(seed).fork(regime == ArrivalRegime::kPoisson ? 101 : 102);
    const auto stream = generate_arrivals(catalog, acfg, njobs, arrival_rng);

    for (const PolicyRow& row : rows) {
      ManagerConfig c = cfg;
      c.slot_fill = row.fill;
      const WorkloadManager mgr(failures, c, cache);
      const CampaignDistribution dist =
          mgr.run_distribution(stream, row.policy, reps, seed, opts);

      table.add_row({to_string(regime), row.label,
                     fmt(100.0 * dist.completion_rate, 1) + "%",
                     fmt(as_hours(dist.turnaround.p50), 1),
                     fmt(as_hours(dist.turnaround.p95), 1),
                     fmt(as_hours(dist.turnaround.p99), 1),
                     fmt(as_hours(dist.turnaround.max), 1),
                     fmt(dist.slowdown.p99, 2),
                     fmt(as_hours(dist.makespan.p50), 0),
                     fmt(as_hours(dist.mean.total_lost()), 1),
                     fmt(as_hours(dist.mean.total_io()), 1)});

      const std::string prefix =
          std::string(to_string(regime)) + "." + row.key + ".";
      json.metric(prefix + "completion_rate", "fraction", dist.completion_rate);
      json.metric(prefix + "turnaround_p50_h", "hours",
                  as_hours(dist.turnaround.p50));
      json.metric(prefix + "turnaround_p95_h", "hours",
                  as_hours(dist.turnaround.p95));
      json.metric(prefix + "turnaround_p99_h", "hours",
                  as_hours(dist.turnaround.p99));
      json.metric(prefix + "turnaround_max_h", "hours",
                  as_hours(dist.turnaround.max));
      json.metric(prefix + "slowdown_p99", "ratio", dist.slowdown.p99);
      json.metric(prefix + "makespan_p50_h", "hours",
                  as_hours(dist.makespan.p50));
      json.metric(prefix + "mean_lost_h", "hours",
                  as_hours(dist.mean.total_lost()));
      json.metric(prefix + "mean_io_h", "hours",
                  as_hours(dist.mean.total_io()));
      json.metric(prefix + "mean_useful_h", "hours",
                  as_hours(dist.mean.total_useful()));

      // Worker-count invariance self-check on one cell: the same campaign at
      // a different --jobs value must reproduce every reported bit.
      if (regime == ArrivalRegime::kPoisson &&
          std::string(row.key) == "shiraz_extreme") {
        const CampaignRunOptions alt{workers > 1 ? std::size_t{1}
                                                 : std::size_t{2},
                                     nullptr};
        const CampaignDistribution redo =
            mgr.run_distribution(stream, row.policy, reps, seed, alt);
        if (!same_dist(dist, redo)) {
          bit_identical = false;
          std::printf("BIT-IDENTITY FAILURE: jobs=%zu diverges from jobs=%zu "
                      "on poisson/shiraz_extreme\n",
                      workers, alt.workers);
        }
      }
    }
  }

  bench::print_table(table, flags);
  json.metric("jobs_bit_identical", "bool", bit_identical ? 1.0 : 0.0);

  std::printf("\nWorker-count invariance self-check: %s.\n",
              bit_identical ? "OK" : "FAILED");
  bench::note(
      "Takeaway: at fleet scale the policies separate in the distribution, "
      "not the mean-of-means. Shiraz pairing under FCFS (random pairing) "
      "shifts the whole turnaround curve down a few percent by converting "
      "lost work into completions. Extreme pairing is a different trade: "
      "favoring the max-contrast partner lets the many light short jobs ride "
      "alongside heavy occupants, collapsing p50/p95 turnaround and slowdown "
      "by 2-5x, at the price of a fatter extreme tail (the few "
      "similar-weight stragglers wait longer) — a classic SLO trade-off the "
      "40-job mean could never show, and it widens under bursty arrivals "
      "where the backlog gives the contrast slot-fill real choice.");

  if (!json.write(flags)) return 1;
  return bit_identical ? 0 : 1;
}
