// Service: one request line -> one response line, byte-for-byte equal to
// what the underlying library computes, with exact cache/counter accounting
// and a per-repetition-audited pair_whatif.
#include "serve/service.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "checkpoint/oci.h"
#include "common/json_parse.h"
#include "common/units.h"
#include "core/switch_solver.h"
#include "obs/event.h"
#include "sched/manager.h"
#include "sim/engine.h"
#include "sim/optimizer.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "reliability/weibull.h"

namespace shiraz::serve {
namespace {

constexpr const char* kSolve =
    R"({"op":"solve_k","delta_lw_s":18,"delta_hw_s":1800})";

TEST(ServeService, SolveKMatchesDirectSolver) {
  Service service;
  const JsonValue doc = parse_json(service.handle(kSolve));
  EXPECT_TRUE(doc.at("ok").boolean);

  core::ModelConfig cfg;  // the protocol's defaults are the paper's
  const core::ShirazModel model(cfg);
  const core::SwitchSolution sol = core::solve_switch_point(
      model, core::AppSpec{"lw", 18.0, 1}, core::AppSpec{"hw", 1800.0, 1});
  ASSERT_TRUE(sol.beneficial());
  EXPECT_EQ(doc.at("k").number, *sol.k);
  EXPECT_TRUE(doc.at("beneficial").boolean);
  EXPECT_EQ(doc.at("delta_lw_h").number, as_hours(sol.delta_lw));
  EXPECT_EQ(doc.at("delta_hw_h").number, as_hours(sol.delta_hw));
  EXPECT_EQ(doc.at("delta_total_h").number, as_hours(sol.delta_total));
}

TEST(ServeService, OciMatchesCheckpointMath) {
  Service service;
  const JsonValue doc =
      parse_json(service.handle(R"({"op":"oci","delta_s":60})"));
  EXPECT_EQ(doc.at("oci_s").number,
            checkpoint::optimal_interval(hours(5.0), 60.0));
  EXPECT_EQ(doc.at("segment_s").number,
            checkpoint::segment_length(hours(5.0), 60.0));
  EXPECT_EQ(doc.at("waste_fraction").number,
            checkpoint::expected_waste_fraction(hours(5.0), 60.0));
}

TEST(ServeService, CheckpointNowDecidesAgainstTheOci) {
  Service service;
  const double oci = checkpoint::optimal_interval(hours(5.0), 60.0);
  const JsonValue early = parse_json(service.handle(
      R"({"op":"checkpoint_now","delta_s":60,"since_ckpt_s":100})"));
  EXPECT_FALSE(early.at("checkpoint").boolean);
  EXPECT_EQ(early.at("due_in_s").number, oci - 100.0);

  const JsonValue due = parse_json(service.handle(
      R"({"op":"checkpoint_now","delta_s":60,"since_ckpt_s":99999})"));
  EXPECT_TRUE(due.at("checkpoint").boolean);
  EXPECT_EQ(due.at("due_in_s").number, 0.0);
}

TEST(ServeService, ResponsesAreDeterministicAcrossInstances) {
  // The divergence contract the bench enforces: two services — whatever
  // their cache state — render identical bytes for identical requests.
  Service warm;
  warm.handle(kSolve);  // prime the cache
  Service cold;
  for (const char* line :
       {kSolve, R"({"op":"oci","delta_s":60})",
        R"({"op":"pair_whatif","delta_lw_s":18,"delta_hw_s":1800,"reps":3,"seed":5})"}) {
    EXPECT_EQ(warm.handle(line), cold.handle(line)) << line;
  }
}

TEST(ServeService, PairWhatifMatchesCanonicalCampaign) {
  Service service;
  const JsonValue doc = parse_json(service.handle(
      R"({"op":"pair_whatif","delta_lw_s":18,"delta_hw_s":1800,"k":26,"reps":4,"seed":7})"));
  ASSERT_TRUE(doc.at("ok").boolean);

  sim::EngineConfig ecfg;
  ecfg.t_total = hours(1000.0);
  const sim::Engine engine(reliability::Weibull::from_mtbf(0.6, hours(5.0)),
                           ecfg);
  const sim::SimSwitchCandidate c = sim::simulate_switch_point(
      engine, sim::SimJob::at_oci("lw", 18.0, hours(5.0)),
      sim::SimJob::at_oci("hw", 1800.0, hours(5.0)), 26, 4, 7);
  const JsonValue& sim = doc.at("sim");
  EXPECT_EQ(sim.at("delta_lw_h").number, as_hours(c.delta_lw));
  EXPECT_EQ(sim.at("delta_hw_h").number, as_hours(c.delta_hw));
  EXPECT_EQ(sim.at("delta_total_h").number, as_hours(c.delta_total));
  EXPECT_EQ(doc.at("audited_reps").number, 4.0);
}

TEST(ServeService, PairWhatifSimDeltasEqualEventLoopCampaigns) {
  // The shipped deltas are the mean of the audited kernel repetitions;
  // event-loop campaigns over the same traces must give the same bits, for
  // a caller's k and for a cache-solved Shiraz+ k alike.
  struct Case {
    const char* line;
    unsigned stretch;
  };
  const Case cases[] = {
      {R"({"op":"pair_whatif","delta_lw_s":18,"delta_hw_s":1800,"k":26,"reps":4,"seed":7})",
       1},
      {R"({"op":"pair_whatif","delta_lw_s":18,"delta_hw_s":1800,"stretch":4,"reps":3,"seed":9})",
       4},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.line);
    Service service;
    const JsonValue doc = parse_json(service.handle(c.line));
    ASSERT_TRUE(doc.at("ok").boolean);
    const auto reps = static_cast<std::size_t>(doc.at("reps").number);
    const auto seed = static_cast<std::uint64_t>(doc.at("seed").number);

    sim::EngineConfig cfg;
    cfg.t_total = hours(1000.0);
    cfg.flat_kernel = false;
    const sim::Engine loop(reliability::Weibull::from_mtbf(0.6, hours(5.0)),
                           cfg);
    const sim::TraceStore traces(loop, seed);
    sim::CampaignOptions opts;
    opts.traces = &traces;
    const sim::SimJob lw = sim::SimJob::at_oci("light", 18.0, hours(5.0));
    const sim::SimResult base =
        loop.run_many({lw, sim::SimJob::at_oci("heavy", 1800.0, hours(5.0))},
                      sim::AlternateAtFailure{}, reps, seed, opts);
    const sim::SimResult sz = loop.run_many(
        {lw, sim::SimJob::at_oci("heavy", 1800.0, hours(5.0), c.stretch)},
        sim::ShirazPairScheduler(static_cast<int>(doc.at("k").number)), reps,
        seed, opts);
    const double sim_lw = sz.apps[0].useful - base.apps[0].useful;
    const double sim_hw = sz.apps[1].useful - base.apps[1].useful;
    const JsonValue& sim = doc.at("sim");
    EXPECT_EQ(sim.at("delta_lw_h").number, as_hours(sim_lw));
    EXPECT_EQ(sim.at("delta_hw_h").number, as_hours(sim_hw));
    EXPECT_EQ(sim.at("delta_total_h").number, as_hours(sim_lw + sim_hw));
  }
}

TEST(ServeService, PairWhatifStreamsRepStampedAuditLog) {
  obs::EventRecorder audit_log;
  ServiceConfig cfg;
  cfg.audit_log = &audit_log;
  Service service(cfg);
  service.handle(
      R"({"op":"pair_whatif","delta_lw_s":18,"delta_hw_s":1800,"reps":2,"seed":7})");
  ASSERT_FALSE(audit_log.events().empty());
  std::uint32_t max_rep = 0;
  for (const obs::Event& e : audit_log.events()) max_rep = std::max(max_rep, e.rep);
  EXPECT_EQ(max_rep, 1u);  // reps are stamped 0..reps-1
  EXPECT_EQ(service.counters().audited_reps, 2u);
}

TEST(ServeService, PairWhatifRepsCapIsEnforced) {
  ServiceConfig cfg;
  cfg.max_whatif_reps = 4;
  Service service(cfg);
  const JsonValue doc = parse_json(service.handle(
      R"({"op":"pair_whatif","delta_lw_s":18,"delta_hw_s":1800,"reps":5})"));
  EXPECT_FALSE(doc.at("ok").boolean);
  EXPECT_NE(doc.at("error").string.find("max_whatif_reps"), std::string::npos);
}

TEST(ServeService, ErrorsBecomeResponsesAndCount) {
  Service service;
  const JsonValue bad = parse_json(service.handle("not json"));
  EXPECT_FALSE(bad.at("ok").boolean);
  const JsonValue unknown =
      parse_json(service.handle(R"({"op":"nope","id":4})"));
  EXPECT_FALSE(unknown.at("ok").boolean);
  EXPECT_EQ(unknown.at("id").number, 4.0);  // id echoed even on errors
  service.handle(kSolve);

  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.requests, 3u);
  EXPECT_EQ(c.errors, 2u);
  EXPECT_EQ(c.solve_k, 1u);
}

TEST(ServeService, StatsReportsSharedCacheCounters) {
  auto cache = std::make_shared<const core::SolverCache>();
  ServiceConfig cfg;
  cfg.cache = cache;
  Service service(cfg);
  service.handle(kSolve);
  service.handle(kSolve);
  const JsonValue doc = parse_json(service.handle(R"({"op":"stats"})"));
  const JsonValue& c = doc.at("cache");
  EXPECT_EQ(c.at("misses").number, 1.0);
  EXPECT_EQ(c.at("hits").number, 1.0);
  EXPECT_EQ(c.at("entries").number, 1.0);
  const JsonValue& r = doc.at("requests");
  EXPECT_EQ(r.at("total").number, 3.0);
  EXPECT_EQ(r.at("solve_k").number, 2.0);
  EXPECT_EQ(r.at("stats").number, 1.0);
}

TEST(ServeService, ShutdownFlagsTheResult) {
  Service service;
  const Service::Result r = service.handle_line(R"({"op":"shutdown"})");
  EXPECT_TRUE(r.shutdown);
  EXPECT_NE(r.response.find("\"stopping\":true"), std::string::npos);
  EXPECT_FALSE(service.handle_line(kSolve).shutdown);
}

TEST(ServeService, SharesOneCacheWithTheWorkloadManager) {
  // The tentpole wiring: a daemon query and a workload-manager campaign hit
  // the same memo table. The manager's pair solve seeds the cache; the
  // service's identical solve_k must then be a pure hit.
  auto cache = std::make_shared<const core::SolverCache>();

  const reliability::Weibull dist =
      reliability::Weibull::from_mtbf(0.6, hours(5.0));
  sched::ManagerConfig mcfg;
  mcfg.horizon = hours(1000.0);  // == the protocol's default t_total_hours
  const sched::WorkloadManager manager(dist, mcfg, cache);
  const std::vector<sched::BatchJobSpec> jobs = {
      {"lw", hours(100.0), 18.0, 0.0}, {"hw", hours(100.0), 1800.0, 0.0}};
  Rng rng(1);
  (void)manager.run(jobs, sched::Policy::kShirazPairing, rng);
  const core::SolverCache::Stats after_manager = cache->stats();
  ASSERT_GE(after_manager.misses, 1u);

  ServiceConfig scfg;
  scfg.cache = cache;
  Service service(scfg);
  const std::string response = service.handle(
      R"({"op":"solve_k","mtbf_hours":5,"delta_lw_s":18,"delta_hw_s":1800})");
  EXPECT_TRUE(parse_json(response).at("ok").boolean);
  const core::SolverCache::Stats after_service = cache->stats();
  EXPECT_EQ(after_service.misses, after_manager.misses);  // no new solve
  EXPECT_EQ(after_service.hits, after_manager.hits + 1);
}

}  // namespace
}  // namespace shiraz::serve
