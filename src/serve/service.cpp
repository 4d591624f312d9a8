#include "serve/service.h"

#include <chrono>
#include <string_view>
#include <utility>
#include <vector>

#include <cmath>

#include "checkpoint/oci.h"
#include "common/error.h"
#include "common/json.h"
#include "common/json_parse.h"
#include "common/units.h"
#include "core/switch_solver.h"
#include "obs/audit_sim.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "reliability/weibull.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace shiraz::serve {

namespace {

core::SolverCacheKey cache_key(const SolveKRequest& r) {
  core::SolverCacheKey key;
  key.mtbf = hours(r.model.mtbf_hours);
  key.weibull_shape = r.model.beta;
  key.epsilon = r.model.epsilon;
  key.t_total = hours(r.model.t_total_hours);
  key.oci_formula = r.model.formula;
  key.delta_lw = r.delta_lw_s;
  key.delta_hw = r.delta_hw_s;
  key.hw_stretch = r.stretch;
  return key;
}

/// Errors still echo the request id when one was given, even when the
/// request itself failed to parse past the id (unknown op, bad field): a
/// second, lenient look at the line recovers it.
std::optional<double> best_effort_id(const std::string& line) {
  try {
    const JsonValue doc = parse_json(line);
    if (doc.type == JsonValue::Type::kObject && doc.has("id")) {
      const JsonValue& v = doc.at("id");
      if (v.type == JsonValue::Type::kNumber && std::isfinite(v.number)) {
        return v.number;
      }
    }
  } catch (const std::exception&) {
    // not JSON at all — no id to echo
  }
  return std::nullopt;
}

/// Response preamble shared by every success payload: fixed key order so
/// identical requests render identical bytes everywhere.
JsonWriter begin_response(const char* op, std::optional<double> id) {
  JsonWriter w(0);
  w.begin_object();
  w.kv("ok", true);
  w.kv("op", op);
  if (id) w.kv("id", *id);
  return w;
}

/// One subscribe stream line for a rep-stamped audit event. Pure function
/// of the event, so the stream is byte-identical across Service instances.
std::string render_stream_event(const obs::Event& e) {
  JsonWriter w(0);
  w.begin_object();
  w.kv("stream", "event");
  w.kv("rep", static_cast<std::uint64_t>(e.rep));
  w.kv("kind", obs::kind_name(e.kind));
  w.kv("t_s", e.time);
  w.kv("duration_s", e.duration);
  w.kv("app", static_cast<std::int64_t>(e.app));
  w.kv("value", e.value);
  w.end_object();
  return w.str();
}

/// Feeds one narrated repetition to its auditor and, alongside, to the
/// recorder that keeps the events for their downstream consumers.
class AuditTee final : public obs::EventSink {
 public:
  AuditTee(obs::InvariantAuditor& auditor, obs::EventRecorder& recorder)
      : auditor_(auditor), recorder_(recorder) {}
  void on_event(const obs::Event& event) override {
    auditor_.on_event(event);
    recorder_.on_event(event);
  }

 private:
  obs::InvariantAuditor& auditor_;
  obs::EventRecorder& recorder_;
};

}  // namespace

/// Registry handles resolved once; references stay valid for the registry's
/// lifetime (the service holds a shared_ptr to it).
struct Service::Instruments {
  obs::Counter& requests;
  obs::Counter& errors;
  obs::Counter& solve_k;
  obs::Counter& oci;
  obs::Counter& checkpoint_now;
  obs::Counter& pair_whatif;
  obs::Counter& subscribe;
  obs::Counter& stats;
  obs::Counter& metrics;
  obs::Counter& shutdown;
  obs::Counter& audited_reps;
  obs::Histogram& latency;

  explicit Instruments(obs::MetricsRegistry& reg)
      : requests(reg.counter("shiraz_serve_requests_total",
                             "request lines handled, errors included")),
        errors(reg.counter("shiraz_serve_errors_total",
                           "requests answered with an error response")),
        solve_k(reg.counter("shiraz_serve_op_solve_k_total",
                            "solve_k requests")),
        oci(reg.counter("shiraz_serve_op_oci_total", "oci requests")),
        checkpoint_now(reg.counter("shiraz_serve_op_checkpoint_now_total",
                                   "checkpoint_now requests")),
        pair_whatif(reg.counter("shiraz_serve_op_pair_whatif_total",
                                "pair_whatif requests")),
        subscribe(reg.counter("shiraz_serve_op_subscribe_total",
                              "subscribe requests")),
        stats(reg.counter("shiraz_serve_op_stats_total", "stats requests")),
        metrics(reg.counter("shiraz_serve_op_metrics_total",
                            "metrics requests")),
        shutdown(reg.counter("shiraz_serve_op_shutdown_total",
                             "shutdown requests")),
        audited_reps(reg.counter(
            "shiraz_serve_audited_reps_total",
            "whatif repetitions replayed through the InvariantAuditor")),
        latency(reg.histogram(
            "shiraz_serve_request_latency_seconds",
            {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0},
            "wall time from request line to response line")) {}
};

Service::Service(ServiceConfig config) : config_(std::move(config)) {
  // Registry resolution (see ServiceConfig::metrics): explicit > the shared
  // cache's > private. A private cache then counts into the same registry,
  // so the default daemon's snapshot includes the solver-cache counters.
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else if (config_.cache != nullptr) {
    metrics_ = config_.cache->metrics();
  } else {
    metrics_ = std::make_shared<obs::MetricsRegistry>();
  }
  cache_ = config_.cache != nullptr
               ? config_.cache
               : std::make_shared<const core::SolverCache>(metrics_);
  ins_ = std::make_unique<const Instruments>(*metrics_);
  SHIRAZ_REQUIRE(config_.max_whatif_reps >= 1,
                 "max_whatif_reps must be >= 1");
}

Service::~Service() = default;

Service::Result Service::handle_line(const std::string& line) {
  return handle_line(line, StreamSink{});
}

Service::Result Service::handle_line(const std::string& line,
                                     const StreamSink& stream) {
  const auto start = std::chrono::steady_clock::now();
  std::optional<double> id;
  bool counted = false;
  Result result;
  try {
    const Request request = parse_request(line);
    id = request.id;
    ins_->requests.add(1);
    struct Bump {
      const Instruments& ins;
      void operator()(const SolveKRequest&) const { ins.solve_k.add(1); }
      void operator()(const OciRequest&) const { ins.oci.add(1); }
      void operator()(const CheckpointNowRequest&) const {
        ins.checkpoint_now.add(1);
      }
      void operator()(const PairWhatifRequest&) const {
        ins.pair_whatif.add(1);
      }
      void operator()(const SubscribeRequest&) const { ins.subscribe.add(1); }
      void operator()(const StatsRequest&) const { ins.stats.add(1); }
      void operator()(const MetricsRequest&) const { ins.metrics.add(1); }
      void operator()(const ShutdownRequest&) const { ins.shutdown.add(1); }
    };
    std::visit(Bump{*ins_}, request.op);
    counted = true;
    bool shutdown = false;
    std::string response = dispatch(request, &shutdown, stream);
    result = Result{std::move(response), shutdown};
  } catch (const std::exception& e) {
    if (!id) id = best_effort_id(line);
    if (!counted) ins_->requests.add(1);
    ins_->errors.add(1);
    result = Result{error_response(e.what(), id), false};
  }
  ins_->latency.observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return result;
}

std::string Service::dispatch(const Request& request, bool* shutdown,
                              const StreamSink& stream) {
  struct Visitor {
    Service& service;
    std::optional<double> id;
    bool* shutdown;
    const StreamSink& stream;
    std::string operator()(const SolveKRequest& r) const {
      return service.do_solve_k(r, id);
    }
    std::string operator()(const OciRequest& r) const {
      return service.do_oci(r, id);
    }
    std::string operator()(const CheckpointNowRequest& r) const {
      return service.do_checkpoint_now(r, id);
    }
    std::string operator()(const PairWhatifRequest& r) const {
      return service.do_whatif("pair_whatif", r, id, nullptr);
    }
    std::string operator()(const SubscribeRequest& r) const {
      return service.do_whatif("subscribe", r.whatif, id,
                               stream ? &stream : nullptr);
    }
    std::string operator()(const StatsRequest&) const {
      return service.do_stats(id);
    }
    std::string operator()(const MetricsRequest& r) const {
      return service.do_metrics(r, id);
    }
    std::string operator()(const ShutdownRequest&) const {
      *shutdown = true;
      JsonWriter w = begin_response("shutdown", id);
      w.kv("stopping", true);
      w.end_object();
      return w.str();
    }
  };
  return std::visit(Visitor{*this, request.id, shutdown, stream}, request.op);
}

std::string Service::do_solve_k(const SolveKRequest& r,
                                std::optional<double> id) {
  const core::CachedSolution sol = cache_->solve(cache_key(r));
  JsonWriter w = begin_response("solve_k", id);
  w.key("k");
  if (sol.k) w.value(*sol.k);
  else w.value_null();
  w.kv("beneficial", sol.beneficial());
  if (sol.k) {
    // switch-out wall-clock time: k light-weight segments (OCI + delta).
    const Seconds segment = checkpoint::segment_length(
        hours(r.model.mtbf_hours), r.delta_lw_s, r.model.formula);
    w.kv("switch_time_h", as_hours(static_cast<double>(*sol.k) * segment));
  }
  w.kv("delta_lw_h", as_hours(sol.delta_lw));
  w.kv("delta_hw_h", as_hours(sol.delta_hw));
  w.kv("delta_total_h", as_hours(sol.delta_total));
  w.end_object();
  return w.str();
}

std::string Service::do_oci(const OciRequest& r, std::optional<double> id) {
  const Seconds mtbf = hours(r.mtbf_hours);
  JsonWriter w = begin_response("oci", id);
  w.kv("formula", formula_name(r.formula));
  w.kv("oci_s", checkpoint::optimal_interval(mtbf, r.delta_s, r.formula));
  w.kv("segment_s", checkpoint::segment_length(mtbf, r.delta_s, r.formula));
  w.kv("waste_fraction", checkpoint::expected_waste_fraction(mtbf, r.delta_s));
  w.end_object();
  return w.str();
}

std::string Service::do_checkpoint_now(const CheckpointNowRequest& r,
                                       std::optional<double> id) {
  const Seconds oci =
      checkpoint::optimal_interval(hours(r.mtbf_hours), r.delta_s, r.formula);
  const bool due = r.since_ckpt_s >= oci;
  JsonWriter w = begin_response("checkpoint_now", id);
  w.kv("checkpoint", due);
  w.kv("oci_s", oci);
  w.kv("due_in_s", due ? 0.0 : oci - r.since_ckpt_s);
  w.end_object();
  return w.str();
}

std::string Service::do_whatif(const char* op, const PairWhatifRequest& r,
                               std::optional<double> id,
                               const StreamSink* stream) {
  SHIRAZ_REQUIRE(r.reps <= config_.max_whatif_reps,
                 "reps exceeds the daemon's max_whatif_reps limit (" +
                     std::to_string(config_.max_whatif_reps) + ")");
  const ModelParams& m = r.solve.model;
  const Seconds mtbf = hours(m.mtbf_hours);

  // The switch point: the caller's, or the fair k from the shared cache.
  int k = 0;
  double model_lw = 0.0;
  double model_hw = 0.0;
  if (r.k) {
    k = *r.k;
    core::ModelConfig mcfg;
    mcfg.mtbf = mtbf;
    mcfg.weibull_shape = m.beta;
    mcfg.epsilon = m.epsilon;
    mcfg.t_total = hours(m.t_total_hours);
    mcfg.oci_formula = m.formula;
    const core::ShirazModel model(mcfg);
    const core::SwitchCandidate c = core::evaluate_switch_point(
        model, core::AppSpec{"light", r.solve.delta_lw_s, 1},
        core::AppSpec{"heavy", r.solve.delta_hw_s, r.solve.stretch}, k);
    model_lw = c.delta_lw;
    model_hw = c.delta_hw;
  } else {
    const core::CachedSolution sol = cache_->solve(cache_key(r.solve));
    SHIRAZ_REQUIRE(sol.beneficial(),
                   "no beneficial switch point for this pair; pass 'k'");
    k = *sol.k;
    model_lw = sol.delta_lw;
    model_hw = sol.delta_hw;
  }

  // Replay-backed campaigns: sample each repetition's failure stream once
  // (TraceStore), replay it under both policies (common random numbers).
  // The engines and the trace store count into the service registry —
  // pure observation, so arming them never changes a response byte.
  sim::EngineConfig ecfg;
  ecfg.t_total = hours(m.t_total_hours);
  ecfg.metrics = metrics_.get();
  const sim::Engine engine(reliability::Weibull::from_mtbf(m.beta, mtbf), ecfg);
  const sim::SimJob lwj =
      sim::SimJob::at_oci("light", r.solve.delta_lw_s, mtbf, 1, m.formula);
  const sim::SimJob hw_base =
      sim::SimJob::at_oci("heavy", r.solve.delta_hw_s, mtbf, 1, m.formula);
  const sim::SimJob hw_shiraz = sim::SimJob::at_oci(
      "heavy", r.solve.delta_hw_s, mtbf, r.solve.stretch, m.formula);
  const std::size_t reps = static_cast<std::size_t>(r.reps);
  sim::TraceStore traces(engine, r.seed);
  traces.set_metrics(metrics_.get());
  sim::CampaignOptions copts;
  copts.traces = &traces;
  const sim::SimResult base = engine.run_many(
      {lwj, hw_base}, sim::AlternateAtFailure{}, reps, r.seed, copts);

  // The Shiraz campaign is the audited run: each repetition replays through
  // the flat kernel with the InvariantAuditor armed as its sink, and its
  // narrated stream is checked against that repetition's own result. The
  // shipped deltas are the rep-order mean of exactly these audited results
  // (what run_many computes), so every number in the response has passed
  // the audit. A failed audit throws (-> error response), so a divergence
  // can never ship a silent answer. A recorder rides along only when the
  // events go somewhere — the client's subscribe stream or the request-audit
  // log — and a repetition's events leave only after its audit passes,
  // rep-stamped, in repetition order.
  const bool record = stream != nullptr || config_.audit_log != nullptr;
  obs::InvariantAuditor auditor;
  obs::EventRecorder recorder;
  AuditTee tee(auditor, recorder);
  sim::EngineConfig acfg = ecfg;
  acfg.sink = record ? static_cast<obs::EventSink*>(&tee) : &auditor;
  const sim::Engine audited(reliability::Weibull::from_mtbf(m.beta, mtbf), acfg);
  const sim::ShirazPairScheduler shiraz(k);
  std::vector<sim::SimResult> audited_reps(reps);
  std::uint64_t events = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auditor.clear();
    recorder.clear();
    audited_reps[rep] =
        audited.replay({lwj, hw_shiraz}, shiraz, traces.trace(rep));
    obs::verify_against(auditor, audited_reps[rep]);
    events += auditor.events_seen();
    // Stream outside any lock: the sink writes to this connection's socket
    // and is only ever called from the thread handling this request.
    if (stream != nullptr) {
      for (obs::Event e : recorder.events()) {
        e.rep = static_cast<std::uint32_t>(rep);
        (*stream)(render_stream_event(e));
      }
    }
    ins_->audited_reps.add(1);
    if (config_.audit_log != nullptr) {
      const std::lock_guard<std::mutex> lock(mu_);
      for (obs::Event e : recorder.events()) {
        e.rep = static_cast<std::uint32_t>(rep);
        config_.audit_log->on_event(e);
      }
    }
  }
  const sim::SimResult sz = sim::summarize_campaign(audited_reps).mean;

  JsonWriter w = begin_response(op, id);
  w.kv("k", k);
  w.kv("reps", r.reps);
  w.kv("seed", r.seed);
  w.key("model").begin_object();
  w.kv("delta_lw_h", as_hours(model_lw));
  w.kv("delta_hw_h", as_hours(model_hw));
  w.kv("delta_total_h", as_hours(model_lw + model_hw));
  w.end_object();
  // Same arithmetic as sim::simulate_switch_point's candidate: per-app
  // diffs, then their sum — so the numbers compare bit-exactly.
  const double sim_lw = sz.apps[0].useful - base.apps[0].useful;
  const double sim_hw = sz.apps[1].useful - base.apps[1].useful;
  w.key("sim").begin_object();
  w.kv("delta_lw_h", as_hours(sim_lw));
  w.kv("delta_hw_h", as_hours(sim_hw));
  w.kv("delta_total_h", as_hours(sim_lw + sim_hw));
  w.end_object();
  w.kv("audited_reps", r.reps);
  // The deterministic audit-event count (streamed or not) — subscribe
  // clients can check they received exactly this many stream lines.
  if (std::string_view(op) == "subscribe") w.kv("events", events);
  w.end_object();
  return w.str();
}

std::string Service::do_stats(std::optional<double> id) {
  const core::SolverCache::Stats cache_stats = cache_->stats();
  const std::size_t entries = cache_->size();
  const ServiceCounters c = counters();
  JsonWriter w = begin_response("stats", id);
  w.kv("protocol", kProtocol);
  w.key("cache").begin_object();
  w.kv("hits", cache_stats.hits);
  w.kv("misses", cache_stats.misses);
  w.kv("entries", static_cast<std::uint64_t>(entries));
  w.kv("hit_ratio", cache_stats.hit_ratio());
  w.end_object();
  w.key("requests").begin_object();
  w.kv("total", c.requests);
  w.kv("errors", c.errors);
  w.kv("solve_k", c.solve_k);
  w.kv("oci", c.oci);
  w.kv("checkpoint_now", c.checkpoint_now);
  w.kv("pair_whatif", c.pair_whatif);
  w.kv("subscribe", c.subscribe);
  w.kv("stats", c.stats);
  w.kv("metrics", c.metrics);
  w.kv("shutdown", c.shutdown);
  w.end_object();
  w.kv("audited_reps", c.audited_reps);
  // Full registry snapshot appended after the legacy fields, so historical
  // consumers of the prefix keys keep parsing unchanged values.
  w.key("metrics");
  obs::metrics_json(w, metrics_->snapshot());
  w.end_object();
  return w.str();
}

std::string Service::do_metrics(const MetricsRequest& r,
                                std::optional<double> id) {
  const obs::MetricsSnapshot snap = metrics_->snapshot();
  JsonWriter w = begin_response("metrics", id);
  w.kv("schema", obs::kMetricsSchema);
  if (r.prometheus) {
    w.kv("format", "prometheus");
    w.kv("body", obs::prometheus_render(snap));
  } else {
    w.kv("format", "json");
    w.key("snapshot");
    obs::metrics_json(w, snap);
  }
  w.end_object();
  return w.str();
}

ServiceCounters Service::counters() const {
  ServiceCounters c;
  c.requests = ins_->requests.value();
  c.errors = ins_->errors.value();
  c.solve_k = ins_->solve_k.value();
  c.oci = ins_->oci.value();
  c.checkpoint_now = ins_->checkpoint_now.value();
  c.pair_whatif = ins_->pair_whatif.value();
  c.subscribe = ins_->subscribe.value();
  c.stats = ins_->stats.value();
  c.metrics = ins_->metrics.value();
  c.shutdown = ins_->shutdown.value();
  c.audited_reps = ins_->audited_reps.value();
  return c;
}

}  // namespace shiraz::serve
