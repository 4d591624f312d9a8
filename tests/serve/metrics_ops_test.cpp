// The serve layer's metrics exposition and audit-event subscription
// (DESIGN.md §11): the `metrics` op snapshots the service registry as
// shiraz-metrics-v1 JSON or Prometheus text; `subscribe` runs pair_whatif
// and streams the audited, rep-stamped event lines ahead of the response;
// `stats` keeps its legacy prefix bit-compatible and appends the snapshot.
// Deterministic responses (subscribe/pair_whatif) stay byte-identical across
// service instances and transports; timing-valued metrics (the latency
// histogram) are checked structurally, never by byte.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/json_parse.h"
#include "common/units.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "reliability/weibull.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace shiraz::serve {
namespace {

constexpr const char* kSolve =
    R"({"op":"solve_k","delta_lw_s":18,"delta_hw_s":1800})";
constexpr const char* kSubscribe =
    R"({"op":"subscribe","delta_lw_s":18,"delta_hw_s":1800,"k":26,"reps":3,"seed":11})";

const JsonValue* find_metric(const JsonValue& snapshot, const std::string& name) {
  for (const JsonValuePtr& m : snapshot.at("metrics").array) {
    if (m->at("name").string == name) return m.get();
  }
  return nullptr;
}

TEST(ServeMetricsOps, MetricsOpSnapshotsTheRegistry) {
  Service service;
  service.handle(kSolve);
  service.handle(kSolve);  // second hit: cache hit, two solve_k requests
  const JsonValue doc = parse_json(service.handle(R"({"op":"metrics"})"));
  ASSERT_TRUE(doc.at("ok").boolean);
  EXPECT_EQ(doc.at("op").string, "metrics");
  EXPECT_EQ(doc.at("schema").string, obs::kMetricsSchema);
  EXPECT_EQ(doc.at("format").string, "json");

  const JsonValue& snap = doc.at("snapshot");
  EXPECT_EQ(snap.at("schema").string, obs::kMetricsSchema);
  const JsonValue* solves = find_metric(snap, "shiraz_serve_op_solve_k_total");
  ASSERT_NE(solves, nullptr);
  EXPECT_EQ(solves->at("value").number, 2.0);
  // The default service builds its cache on the service registry, so the
  // snapshot folds the solver-cache counters in.
  const JsonValue* hits = find_metric(snap, "shiraz_solver_cache_hits_total");
  const JsonValue* misses =
      find_metric(snap, "shiraz_solver_cache_misses_total");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(hits->at("value").number, 1.0);
  EXPECT_EQ(misses->at("value").number, 1.0);
  // The miss's work: the paper point's bracketed search evaluates the model
  // at 10 switch points; the hit evaluates none.
  const JsonValue* evaluations =
      find_metric(snap, "shiraz_solver_model_evaluations_total");
  ASSERT_NE(evaluations, nullptr);
  EXPECT_EQ(evaluations->at("value").number, 10.0);
  // The request that produced this response is itself counted.
  const JsonValue* total = find_metric(snap, "shiraz_serve_requests_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->at("value").number, 3.0);
  const JsonValue* latency =
      find_metric(snap, "shiraz_serve_request_latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->at("type").string, "histogram");
  EXPECT_EQ(latency->at("count").number, 2.0);  // metrics op not yet observed
}

TEST(ServeMetricsOps, MetricsOpRendersPrometheusText) {
  Service service;
  service.handle(kSolve);
  const JsonValue doc =
      parse_json(service.handle(R"({"op":"metrics","format":"prometheus"})"));
  ASSERT_TRUE(doc.at("ok").boolean);
  EXPECT_EQ(doc.at("format").string, "prometheus");
  const std::string& body = doc.at("body").string;
  EXPECT_NE(body.find("# TYPE shiraz_serve_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(body.find("shiraz_serve_op_solve_k_total 1\n"), std::string::npos);
  EXPECT_NE(
      body.find("# TYPE shiraz_serve_request_latency_seconds histogram\n"),
      std::string::npos);
  EXPECT_NE(body.find("shiraz_serve_request_latency_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
}

TEST(ServeMetricsOps, MetricsOpRejectsUnknownFormat) {
  Service service;
  const JsonValue doc =
      parse_json(service.handle(R"({"op":"metrics","format":"xml"})"));
  EXPECT_FALSE(doc.at("ok").boolean);
}

TEST(ServeMetricsOps, SubscribeStreamsExactlyTheAuditedEvents) {
  Service with_sink;
  std::vector<std::string> streamed;
  const Service::Result res = with_sink.handle_line(
      kSubscribe, [&streamed](const std::string& line) {
        streamed.push_back(line);
      });
  const JsonValue doc = parse_json(res.response);
  ASSERT_TRUE(doc.at("ok").boolean);
  EXPECT_EQ(doc.at("op").string, "subscribe");
  EXPECT_EQ(doc.at("audited_reps").number, 3.0);

  // The response's deterministic "events" count is the subscription
  // contract: the client received exactly this many stream lines.
  EXPECT_EQ(doc.at("events").number, static_cast<double>(streamed.size()));
  ASSERT_FALSE(streamed.empty());
  std::uint32_t max_rep = 0;
  for (const std::string& line : streamed) {
    ASSERT_EQ(line.rfind("{\"stream\":", 0), 0u) << line;
    const JsonValue e = parse_json(line);
    EXPECT_EQ(e.at("stream").string, "event");
    max_rep = std::max(max_rep,
                       static_cast<std::uint32_t>(e.at("rep").number));
  }
  EXPECT_EQ(max_rep, 2u);  // reps are stamped 0..reps-1 in order

  // A sink-less subscribe returns the identical response bytes — streaming
  // is pure observation of the audit the op runs anyway.
  Service without_sink;
  EXPECT_EQ(without_sink.handle(kSubscribe), res.response);

  // And a second subscribed service streams the identical lines.
  Service again;
  std::vector<std::string> streamed2;
  again.handle_line(kSubscribe, [&streamed2](const std::string& line) {
    streamed2.push_back(line);
  });
  EXPECT_EQ(streamed, streamed2);
}

TEST(ServeMetricsOps, SubscribeFramesEqualTheEventLoopStream) {
  // The frames are the audited kernel's narration; an event-loop engine
  // replaying the same traces must record the same events, field for field.
  Service service;
  std::vector<std::string> frames;
  const Service::Result res = service.handle_line(
      kSubscribe, [&frames](const std::string& line) { frames.push_back(line); });
  ASSERT_TRUE(parse_json(res.response).at("ok").boolean);

  sim::EngineConfig cfg;  // the protocol defaults: 1000 h, MTBF 5 h, beta 0.6
  cfg.t_total = hours(1000.0);
  cfg.flat_kernel = false;
  const sim::Engine loop(reliability::Weibull::from_mtbf(0.6, hours(5.0)), cfg);
  const sim::TraceStore traces(loop, 11);
  obs::EventRecorder recorder;
  sim::CampaignOptions opts;
  opts.traces = &traces;
  opts.sink = &recorder;
  (void)loop.run_many({sim::SimJob::at_oci("light", 18.0, hours(5.0)),
                       sim::SimJob::at_oci("heavy", 1800.0, hours(5.0))},
                      sim::ShirazPairScheduler(26), 3, 11, opts);

  const std::vector<obs::Event>& want = recorder.events();
  ASSERT_EQ(frames.size(), want.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const JsonValue f = parse_json(frames[i]);
    ASSERT_EQ(f.at("rep").number, static_cast<double>(want[i].rep)) << i;
    ASSERT_EQ(f.at("kind").string, obs::kind_name(want[i].kind)) << i;
    ASSERT_EQ(f.at("t_s").number, want[i].time) << i;
    ASSERT_EQ(f.at("duration_s").number, want[i].duration) << i;
    ASSERT_EQ(f.at("app").number, static_cast<double>(want[i].app)) << i;
    ASSERT_EQ(f.at("value").number, want[i].value) << i;
  }
}

TEST(ServeMetricsOps, StatsKeepsLegacyFieldsAndAppendsTheSnapshot) {
  Service service;
  service.handle(kSolve);
  service.handle(kSubscribe);
  const JsonValue doc = parse_json(service.handle(R"({"op":"stats"})"));
  ASSERT_TRUE(doc.at("ok").boolean);
  // Legacy prefix, unchanged semantics.
  EXPECT_EQ(doc.at("cache").at("misses").number, 1.0);
  EXPECT_EQ(doc.at("requests").at("solve_k").number, 1.0);
  EXPECT_EQ(doc.at("requests").at("total").number, 3.0);
  // New per-op keys and the trailing registry snapshot.
  EXPECT_EQ(doc.at("requests").at("subscribe").number, 1.0);
  EXPECT_EQ(doc.at("requests").at("metrics").number, 0.0);
  EXPECT_EQ(doc.at("audited_reps").number, 3.0);
  const JsonValue& snap = doc.at("metrics");
  EXPECT_EQ(snap.at("schema").string, obs::kMetricsSchema);
  const JsonValue* reps = find_metric(snap, "shiraz_sim_reps_total");
  ASSERT_NE(reps, nullptr);
  // subscribe ran the base campaign and the audited Shiraz repetitions, 3
  // reps each, all on the flat kernel: the audited run is the answer run.
  EXPECT_EQ(reps->at("value").number, 2.0 * 3.0);
  const JsonValue* loop_runs =
      find_metric(snap, "shiraz_sim_event_loop_runs_total");
  ASSERT_NE(loop_runs, nullptr);
  EXPECT_EQ(loop_runs->at("value").number, 0.0);
}

TEST(ServeMetricsOps, ServerStreamsSubscribeFramesOverTheSocket) {
  static std::atomic<int> counter{0};
  ServerConfig cfg;
  cfg.socket_path = (std::filesystem::temp_directory_path() /
                     ("shiraz_metrics_" + std::to_string(::getpid()) + "_" +
                      std::to_string(counter++) + ".sock"))
                        .string();
  Server server(cfg);
  server.serve_async();

  // The daemon's stream frames and response must match the in-process
  // service byte for byte.
  Service direct;
  std::vector<std::string> want_stream;
  const Service::Result want = direct.handle_line(
      kSubscribe,
      [&want_stream](const std::string& l) { want_stream.push_back(l); });

  Client client(cfg.socket_path);
  std::vector<std::string> got_stream;
  const std::string got = client.request(
      kSubscribe, [&got_stream](const std::string& l) { got_stream.push_back(l); });
  EXPECT_EQ(got, want.response);
  EXPECT_EQ(got_stream, want_stream);

  // The connection gauge saw this client; after the exchange the snapshot's
  // metrics op still answers over the same connection.
  const JsonValue doc = parse_json(client.request(R"({"op":"metrics"})"));
  ASSERT_TRUE(doc.at("ok").boolean);
  const JsonValue* conns =
      find_metric(doc.at("snapshot"), "shiraz_serve_active_connections");
  ASSERT_NE(conns, nullptr);
  EXPECT_EQ(conns->at("value").number, 1.0);
  server.request_stop();
  server.wait();
}

TEST(ServeMetricsOps, ServiceCountersReadBackFromTheRegistry) {
  Service service;
  service.handle(kSolve);
  service.handle(R"({"op":"metrics"})");
  service.handle(R"(not json)");
  const ServiceCounters c = service.counters();
  EXPECT_EQ(c.requests, 3u);
  EXPECT_EQ(c.errors, 1u);
  EXPECT_EQ(c.solve_k, 1u);
  EXPECT_EQ(c.metrics, 1u);
  EXPECT_EQ(c.subscribe, 0u);
}

}  // namespace
}  // namespace shiraz::serve
