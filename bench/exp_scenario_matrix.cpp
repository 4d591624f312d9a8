// Scenario matrix: every scheduler crossed with every catalog scenario,
// every cell swept through the invariant auditor.
//
// For each scenario in testdata/scenarios (correlated failure regimes the
// paper's renewal model can't express) and each scheduler (alternate-at-
// failure, Shiraz at the nominal k*, naive MTBF/2 time switch, predictive
// Shiraz with an oracle), the bench:
//
//   1. samples the regime once into a sim::TraceStore and runs the parallel
//      replay campaign (`--jobs`-bit-identical by construction);
//   2. replays every repetition serially through a second, traced engine and
//      audits the event stream with obs::InvariantAuditor against the
//      repetition's own reported result — then checks the serial audited
//      totals equal the parallel campaign's bit for bit (kernel-eligible
//      cells narrate on the flat kernel, the rest on the event loop);
//   3. re-runs one campaign at a different worker count and compares exactly.
//
// Any audit failure or divergence makes the bench exit nonzero, so CI treats
// the whole matrix as one big invariant: correlated failure processes run
// through the exact same accounting machinery as the paper's renewal runs.
// --json=FILE emits the shiraz-bench-v1 document (BENCH_scenarios.json in CI).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/switch_solver.h"
#include "obs/audit_sim.h"
#include "obs/event.h"
#include "predict/oracle.h"
#include "predict/policies.h"
#include "reliability/regimes.h"
#include "scenario/scenario.h"
#include "sim/trace.h"

#ifndef SHIRAZ_SCENARIO_DIR
#define SHIRAZ_SCENARIO_DIR "testdata/scenarios"
#endif

using namespace shiraz;

namespace {

struct CellResult {
  std::string scenario;
  std::string sched;
  sim::CampaignSummary campaign;
  bool audited = false;
  bool bit_identical = false;
};

/// Exact comparison of the headline totals of two campaign summaries — the
/// bit-identity contract, not a tolerance check.
bool same_bits(const sim::CampaignSummary& a, const sim::CampaignSummary& b) {
  return a.total_useful.mean == b.total_useful.mean &&
         a.total_io.mean == b.total_io.mean &&
         a.total_lost.mean == b.total_lost.mean &&
         a.failures.mean == b.failures.mean && a.switches.mean == b.switches.mean;
}

int solve_nominal_k(const scenario::Scenario& sc, const core::AppSpec& lw,
                    const core::AppSpec& hw) {
  core::ModelConfig mcfg;
  mcfg.mtbf = sc.nominal_mtbf;
  mcfg.weibull_shape = 0.6;
  mcfg.t_total = sc.horizon;
  const core::SwitchSolution sol =
      solve_switch_point(core::ShirazModel(mcfg), lw, hw);
  // Every shipped scenario has a beneficial k at these deltas; a future entry
  // without one degenerates to alternate-at-failure via k handling below.
  return sol.beneficial() ? *sol.k : -1;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bench::RunFlags run = bench::run_flags(flags, 64, 20180625);
  const std::string dir = flags.get("dir", SHIRAZ_SCENARIO_DIR);

  bench::banner("Scenario matrix (DESIGN.md §8)",
                "Schedulers x correlated failure regimes, every cell replayed "
                "through the invariant auditor (" + run.describe() + ")");

  const std::vector<scenario::Scenario> scenarios = scenario::load_dir(dir);
  bench::note("Corpus: " + dir + " (" + std::to_string(scenarios.size()) +
              " scenarios, " + scenario::kSchema + ")");

  const core::AppSpec lw{"light", 18.0, 1};
  const core::AppSpec hw{"heavy", 1800.0, 1};

  bench::BenchJson json("exp_scenario_matrix", run);
  json.config("corpus", dir);
  json.config("scenarios", static_cast<std::int64_t>(scenarios.size()));
  json.config("delta_lw", lw.delta);
  json.config("delta_hw", hw.delta);

  bench::BenchCampaigns campaigns(run.workers, run.reps);
  const std::size_t alt_workers = run.workers == 1 ? 2 : 1;
  bench::BenchCampaigns alt_campaigns(alt_workers, run.reps);

  Table table({"scenario", "scheduler", "useful (h)", "io (h)", "lost (h)",
               "failures", "audit", "jobs-eq"});
  std::vector<CellResult> cells;
  bool all_ok = true;

  for (const scenario::Scenario& sc : scenarios) {
    const reliability::FailureRegimePtr regime = sc.make_regime();
    const sim::TraceStore traces(*regime, run.seed, sc.horizon);
    traces.ensure(run.reps);

    // Regime-shape diagnostics from repetition 0's materialized gaps: how
    // far from renewal this scenario actually is.
    {
      const sim::FailureTrace& t0 = traces.trace(0);
      std::vector<Seconds> gaps;
      gaps.reserve(t0.size());
      for (std::size_t i = 0; i < t0.size(); ++i) gaps.push_back(t0.gap(i));
      json.metric(sc.id + ".mean_gap_hours", "hours",
                  as_hours(regime->mean_gap()));
      if (gaps.size() >= 3) {
        json.metric(sc.id + ".count_dispersion", "ratio",
                    reliability::count_index_of_dispersion(gaps, sc.horizon / 24.0));
        json.metric(sc.id + ".gap_autocorr_lag1", "ratio",
                    reliability::gap_lag1_autocorrelation(gaps));
      }
    }

    sim::EngineConfig ecfg;
    ecfg.t_total = sc.horizon;
    const sim::Engine engine(regime->sampler(sc.horizon), ecfg);

    const std::vector<sim::SimJob> jobs{
        sim::SimJob::at_oci("light", lw.delta, sc.nominal_mtbf),
        sim::SimJob::at_oci("heavy", hw.delta, sc.nominal_mtbf)};

    const int k = solve_nominal_k(sc, lw, hw);

    predict::OracleConfig ocfg;
    ocfg.precision = 0.9;
    ocfg.recall = 0.8;
    ocfg.lead = minutes(10.0);
    ocfg.mtbf = sc.nominal_mtbf;

    struct Sched {
      std::string id;
      std::unique_ptr<sim::Scheduler> policy;
      std::unique_ptr<sim::AlarmSource> alarms;
    };
    std::vector<Sched> scheds;
    scheds.push_back({"alternate", std::make_unique<sim::AlternateAtFailure>(),
                      nullptr});
    if (k >= 1) {
      scheds.push_back({"shiraz-k" + std::to_string(k),
                        std::make_unique<sim::ShirazPairScheduler>(k), nullptr});
    }
    scheds.push_back({"naive-half-mtbf",
                      std::make_unique<sim::NaiveTimeSwitchScheduler>(
                          sc.nominal_mtbf / 2.0),
                      nullptr});
    if (k >= 1) {
      scheds.push_back({"predictive-shiraz",
                        std::make_unique<predict::PredictiveShirazScheduler>(k),
                        std::make_unique<predict::OraclePredictor>(ocfg)});
    }

    for (Sched& sd : scheds) {
      const sim::AlarmSource* alarms = sd.alarms.get();

      // (1) Parallel replay campaign.
      const sim::CampaignSummary campaign = engine.run_campaign(
          jobs, *sd.policy, run.reps, run.seed, campaigns.replay(traces, alarms));

      // (2) Serial audited replay: every repetition re-run through a traced
      // engine, its event stream checked against its own result, and the
      // audited per-rep results summarized for an exact cross-check against
      // the parallel campaign.
      bool audited = true;
      std::vector<sim::SimResult> audited_reps;
      audited_reps.reserve(run.reps);
      obs::EventRecorder recorder;
      sim::EngineConfig acfg = ecfg;
      acfg.sink = &recorder;
      const sim::Engine audit_engine(regime->sampler(sc.horizon), acfg);
      try {
        for (std::size_t r = 0; r < run.reps; ++r) {
          recorder.clear();
          const std::unique_ptr<sim::AlarmSource> rep_alarms =
              alarms != nullptr ? alarms->clone() : nullptr;
          sim::SimResult res;
          if (alarms != nullptr) {
            Rng rng = Rng(run.seed).fork(r);
            res = audit_engine.replay(jobs, *sd.policy, traces.trace(r), rng,
                                      rep_alarms.get());
          } else {
            res = audit_engine.replay(jobs, *sd.policy, traces.trace(r));
          }
          obs::InvariantAuditor auditor;
          for (const obs::Event& e : recorder.events()) auditor.on_event(e);
          obs::verify_against(auditor, res);  // throws AuditError on divergence
          audited_reps.push_back(res);
        }
      } catch (const Error& e) {
        audited = false;
        std::fprintf(stderr, "AUDIT FAILED %s/%s: %s\n", sc.id.c_str(),
                     sd.id.c_str(), e.what());
      }
      const bool serial_matches =
          audited &&
          same_bits(campaign, sim::summarize_campaign(audited_reps));
      if (audited && !serial_matches) {
        std::fprintf(stderr,
                     "DIVERGENCE %s/%s: serial audited replay != parallel "
                     "campaign\n", sc.id.c_str(), sd.id.c_str());
      }

      // (3) Same campaign at a different worker count must be bit-identical.
      const sim::CampaignSummary alt = engine.run_campaign(
          jobs, *sd.policy, run.reps, run.seed,
          alt_campaigns.replay(traces, alarms));
      const bool jobs_eq = same_bits(campaign, alt);
      if (!jobs_eq) {
        std::fprintf(stderr, "DIVERGENCE %s/%s: jobs=%zu != jobs=%zu\n",
                     sc.id.c_str(), sd.id.c_str(), run.workers, alt_workers);
      }

      const bool cell_ok = audited && serial_matches && jobs_eq;
      all_ok = all_ok && cell_ok;

      table.add_row({sc.id, sd.id, bench::fmt_hours_ci(campaign.total_useful),
                     bench::fmt_hours_ci(campaign.total_io),
                     bench::fmt_hours_ci(campaign.total_lost),
                     bench::fmt_mean_ci(campaign.failures.mean,
                                        campaign.failures.ci95),
                     audited && serial_matches ? "ok" : "FAIL",
                     jobs_eq ? "ok" : "FAIL"});

      const std::string prefix = sc.id + "." + sd.id;
      json.metric(prefix + ".useful_hours", "hours",
                  as_hours(campaign.total_useful.mean),
                  as_hours(campaign.total_useful.stddev),
                  as_hours(campaign.total_useful.ci95));
      json.metric(prefix + ".io_hours", "hours",
                  as_hours(campaign.total_io.mean),
                  as_hours(campaign.total_io.stddev),
                  as_hours(campaign.total_io.ci95));
      json.metric(prefix + ".lost_hours", "hours",
                  as_hours(campaign.total_lost.mean),
                  as_hours(campaign.total_lost.stddev),
                  as_hours(campaign.total_lost.ci95));
      json.metric(prefix + ".failures", "count", campaign.failures.mean,
                  campaign.failures.stddev, campaign.failures.ci95);
      json.metric(prefix + ".audit_ok", "bool", cell_ok ? 1.0 : 0.0);

      cells.push_back({sc.id, sd.id, campaign, audited && serial_matches,
                       jobs_eq});
    }
  }

  bench::print_table(table, flags);
  bench::note("");
  bench::note(all_ok
                  ? "All cells audited clean and bit-identical across worker "
                    "counts."
                  : "MATRIX FAILED: at least one cell diverged (see stderr).");
  json.metric("matrix.cells", "count", static_cast<double>(cells.size()));
  json.metric("matrix.all_ok", "bool", all_ok ? 1.0 : 0.0);

  if (!json.write(flags)) return 1;
  return all_ok ? 0 : 1;
}
