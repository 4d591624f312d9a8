// serve-mix: a closed loop against the shirazctl serve daemon.
//
// Set-up binds an in-process serve::Server (3 worker threads) on an AF_UNIX
// socket, waits for it, and warms its solver cache with the popular
// signatures. The timed window drives it with 3 serve::Client connections,
// each sending its next pre-generated line only after the previous reply
// (inputs.h has the mix). Every exchange is kept as a latency, a hash of the
// response bytes, and a hash and count of the subscribe stream frames.
//
// Correctness, after the window: every line is answered again by a fresh,
// equally warmed in-process serve::Service — responses and stream frames
// must hash identically, and each subscribe must have delivered exactly its
// response's "events" frames.
//
// Tracing: the layers inside the daemon cannot be wrapped from outside, so
// the traced pass re-executes each request in-process through the same
// public calls Service::do_whatif makes, in the same order (parse_request,
// SolverCache::solve, TraceStore + ensure, two Engine::run_many, then per
// repetition a traced Engine::replay and the InvariantAuditor). The
// re-execution must reproduce the daemon's "sim" deltas and event counts bit
// for bit, and hit and miss the solver cache exactly as often as the daemon
// did, so the per-layer times describe the path that ships. Socket time
// is the client latency minus the in-process Service::handle time of the
// same line; the service's own render + dispatch time is handle time minus
// the re-executed calls.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/error.h"
#include "common/json_parse.h"
#include "common/units.h"
#include "core/solver_cache.h"
#include "inputs.h"
#include "obs/audit_sim.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "reliability/weibull.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace shiraz;

/// Request lines generated per client per second of window, about 2.5x
/// today's rate. A client that runs out starts its script over; repeated
/// lines answer identically, but a repeated fresh solve_k signature hits.
constexpr std::size_t kLinesPerClientSecond = 4000;

/// One request/response exchange, without its bytes.
struct Exchange {
  std::uint32_t seq = 0;  ///< the client's request number; its script line
                          ///< is seq % script size
  double latency_s = 0.0;
  std::uint64_t response_hash = 0;
  std::uint64_t stream_hash = 0;
  std::uint32_t frames = 0;
};

struct ClientLog {
  std::vector<Exchange> exchanges;
  std::uint64_t frame_bytes = 0;
  std::string io_error;  ///< set when the connection failed; the client stops
};

struct PhaseResult {
  double elapsed_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time of the window: clients and daemon
  std::vector<ClientLog> clients;
  std::size_t requests() const {
    std::size_t n = 0;
    for (const ClientLog& c : clients) n += c.exchanges.size();
    return n;
  }
};

/// Request ids: client c's request seq is c * kRequestStride + seq.
constexpr std::uint64_t kRequestStride = std::uint64_t{1} << 32;

/// Whether request `seq` carries a signature no earlier request did.
bool fresh_solve(const RequestScript& script, std::size_t seq) {
  return seq < script.size() && script.fresh_key[seq];
}

/// Failures found on one worker thread, merged into the report afterwards.
struct Failures {
  std::uint64_t count = 0;
  std::string first;
  void add(const std::string& why) {
    if (count++ == 0) first = why;
  }
};

/// Hash of the frames of one subscribe, chained in arrival order.
struct StreamTally {
  std::uint64_t hash = fnv1a("");
  std::uint32_t frames = 0;
  std::uint64_t bytes = 0;
  void operator()(const std::string& frame) {
    hash = fnv1a(frame, fnv1a("\n", hash));
    ++frames;
    bytes += frame.size() + 1;
  }
};

/// The daemon's cache key for a solve request (serve/service.cpp's).
core::SolverCacheKey cache_key(const serve::SolveKRequest& r) {
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

/// Per-thread state and totals of the in-process re-execution of one
/// client's requests.
struct Decomposition {
  SpanLog spans{true};
  obs::MetricsRegistry registry;  ///< this thread's trace stores and engines
  /// Primed with everything the client solved before the traced window, so
  /// each call hits or misses as it did in the daemon. (Never-seen
  /// signatures are unique to one client; the popular ones are warmed.)
  core::SolverCache cache;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double hit_s = 0.0;
  double miss_s = 0.0;
  double whatif_s = 0.0;        ///< pair_whatif re-executions
  double whatif_audit_s = 0.0;  ///< their audit replay + auditor part
  std::uint64_t events = 0;
  double max_resident_bytes = 0.0;

  /// SolverCache::solve under a span, its time split by hit or miss.
  core::CachedSolution solve(const serve::SolveKRequest& r,
                             std::uint64_t request, std::int64_t root) {
    const std::uint64_t misses_before = cache.stats().misses;
    const double t0 = now_s();
    core::CachedSolution sol;
    {
      const ScopedSpan s(spans, "core.cache.solve", request, root);
      sol = cache.solve(cache_key(r));
    }
    const double dt = now_s() - t0;
    if (cache.stats().misses != misses_before) {
      ++misses;
      miss_s += dt;
    } else {
      ++hits;
      hit_s += dt;
    }
    return sol;
  }
};

/// Re-executes one pair_whatif/subscribe through Service::do_whatif's
/// public calls; checks the result against the response the daemon sent.
void decompose_whatif(const serve::PairWhatifRequest& r, bool subscribe,
                      const std::string& response, std::uint64_t request,
                      std::int64_t root, Decomposition& d, Failures& failures) {
  const serve::ModelParams& m = r.solve.model;
  const Seconds mtbf = hours(m.mtbf_hours);
  SHIRAZ_REQUIRE(!r.k, "serve-mix whatif lines take k from the cache");
  const double t_start = now_s();
  const core::CachedSolution sol = d.solve(r.solve, request, root);
  SHIRAZ_REQUIRE(sol.beneficial(), "whatif signature has no fair k");
  const int k = *sol.k;

  sim::EngineConfig ecfg;
  ecfg.t_total = hours(m.t_total_hours);
  ecfg.metrics = &d.registry;
  const sim::Engine engine(reliability::Weibull::from_mtbf(m.beta, mtbf), ecfg);
  const sim::SimJob lwj =
      sim::SimJob::at_oci("light", r.solve.delta_lw_s, mtbf, 1, m.formula);
  const sim::SimJob hw_base =
      sim::SimJob::at_oci("heavy", r.solve.delta_hw_s, mtbf, 1, m.formula);
  const sim::SimJob hw_shiraz = sim::SimJob::at_oci(
      "heavy", r.solve.delta_hw_s, mtbf, r.solve.stretch, m.formula);
  const std::size_t reps = static_cast<std::size_t>(r.reps);

  const obs::Gauge& resident = d.registry.gauge("shiraz_trace_resident_bytes");
  const double resident_before = resident.value();
  sim::TraceStore traces(engine, r.seed);
  {
    const ScopedSpan s(d.spans, "sim.trace", request, root);
    traces.set_metrics(&d.registry);
    traces.ensure(reps);
  }
  d.max_resident_bytes =
      std::max(d.max_resident_bytes, resident.value() - resident_before);
  sim::CampaignOptions copts;
  copts.traces = &traces;
  const sim::ShirazPairScheduler shiraz(k);
  sim::SimResult base;
  sim::SimResult sz;
  {
    const ScopedSpan s(d.spans, "sim.campaign", request, root);
    base = engine.run_many({lwj, hw_base}, sim::AlternateAtFailure{}, reps,
                           r.seed, copts);
  }
  {
    const ScopedSpan s(d.spans, "sim.campaign", request, root);
    sz = engine.run_many({lwj, hw_shiraz}, shiraz, reps, r.seed, copts);
  }

  std::uint64_t events = 0;
  double audit_s = 0.0;
  obs::EventRecorder recorder;
  sim::EngineConfig tcfg = ecfg;
  tcfg.sink = &recorder;
  const sim::Engine traced(reliability::Weibull::from_mtbf(m.beta, mtbf), tcfg);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double t0 = now_s();
    recorder.clear();
    sim::SimResult res;
    {
      const ScopedSpan s(d.spans, "sim.audit_replay", request, root);
      res = traced.replay({lwj, hw_shiraz}, shiraz, traces.trace(rep));
    }
    {
      const ScopedSpan s(d.spans, "obs.audit", request, root);
      obs::InvariantAuditor auditor;
      for (const obs::Event& e : recorder.events()) auditor.on_event(e);
      obs::verify_against(auditor, res);
    }
    events += recorder.events().size();
    audit_s += now_s() - t0;
  }
  d.events += events;
  if (!subscribe) {
    d.whatif_s += now_s() - t_start;
    d.whatif_audit_s += audit_s;
  }

  // The decomposition self-check: the daemon's answer, bit for bit.
  const JsonValue doc = parse_json(response);
  const JsonValue& sim_doc = doc.at("sim");
  const double sim_lw = sz.apps[0].useful - base.apps[0].useful;
  const double sim_hw = sz.apps[1].useful - base.apps[1].useful;
  const bool same =
      doc.at("k").number == static_cast<double>(k) &&
      sim_doc.at("delta_lw_h").number == as_hours(sim_lw) &&
      sim_doc.at("delta_hw_h").number == as_hours(sim_hw) &&
      sim_doc.at("delta_total_h").number == as_hours(sim_lw + sim_hw) &&
      (!subscribe || doc.at("events").number == static_cast<double>(events));
  if (!same) {
    failures.add("decomposition of request " + std::to_string(request) +
                   " does not reproduce the daemon's answer: " + response);
  }
}

/// Re-executes one request line in-process, spans around each public call.
void decompose(const std::string& line, std::uint64_t request,
               const std::string& response, Decomposition& d,
               Failures& failures) {
  const ScopedSpan root(d.spans, "serve.dispatch", request);
  std::optional<serve::Request> parsed;
  {
    const ScopedSpan s(d.spans, "serve.parse", request, root.id());
    parsed = serve::parse_request(line);
  }
  if (const auto* r = std::get_if<serve::SolveKRequest>(&parsed->op)) {
    d.solve(*r, request, root.id());
  } else if (const auto* w = std::get_if<serve::PairWhatifRequest>(&parsed->op)) {
    decompose_whatif(*w, false, response, request, root.id(), d, failures);
  } else if (const auto* s = std::get_if<serve::SubscribeRequest>(&parsed->op)) {
    decompose_whatif(s->whatif, true, response, request, root.id(), d, failures);
  }
}

/// Reads one counter or gauge out of a daemon `metrics` op response.
double daemon_metric(const JsonValue& doc, const std::string& name) {
  for (const JsonValuePtr& e : doc.at("snapshot").at("metrics").array) {
    if (e->at("name").string == name) return e->at("value").number;
  }
  return 0.0;
}

}  // namespace

void run_serve_mix(const Options& opt, Report& report) {
  const std::size_t per_client = static_cast<std::size_t>(
      static_cast<double>(kLinesPerClientSecond) *
      (kWarmupSeconds + opt.seconds * (opt.trace ? 2.0 : 1.0)));
  const ServeInputs inputs = make_serve_inputs(opt.seed, kServeClients, per_client);
  // Relative to the working directory: sockaddr_un paths are short.
  const std::string socket_path =
      std::string(kOutDir) + "/serve-" + std::to_string(::getpid()) + ".sock";

  // Set-up: bind, wait_for_server, warm the cache.
  std::unique_ptr<serve::Server> server;
  auto start_daemon = [&] {
    serve::ServerConfig scfg;
    scfg.socket_path = socket_path;
    scfg.threads = kDaemonThreads;
    server = std::make_unique<serve::Server>(std::move(scfg));
    server->serve_async();
    SHIRAZ_REQUIRE(serve::wait_for_server(socket_path), "daemon did not come up");
    serve::Client warm(socket_path);
    for (const std::string& line : inputs.warmup) warm.request(line);
  };
  auto stop_daemon = [&] {
    server->request_stop();
    server->wait();
    server.reset();
  };
  start_daemon();
  auto daemon_metrics = [&] {
    serve::Client admin(socket_path);
    return parse_json(admin.request(R"({"op":"metrics"})"));
  };

  // One closed-loop window; cursors carry over from window to window.
  std::vector<std::size_t> cursor(kServeClients, 0);
  auto run_phase = [&](double seconds, bool traced,
                       std::vector<SpanLog>& client_spans) {
    PhaseResult out;
    out.clients.resize(kServeClients);
    std::atomic<std::size_t> connected{0};
    std::atomic<bool> go{false};
    double start = 0.0;
    double deadline = 0.0;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kServeClients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = out.clients[c];
        const RequestScript& script = inputs.clients[c];
        std::optional<serve::Client> client;
        try {
          client.emplace(socket_path);
        } catch (const std::exception& e) {
          log.io_error = e.what();
        }
        connected.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        if (!client) return;
        // Reserved up front: pages are only touched as exchanges land, so
        // the peak resident set grows with requests, not in doubling steps.
        log.exchanges.reserve(script.size());
        try {
          while (now_s() < deadline) {
            const std::size_t seq = cursor[c]++;
            const std::string line(script.line(seq % script.size()));
            StreamTally tally;
            const std::uint64_t request = c * kRequestStride + seq;
            const double t0 = now_s();
            const std::int64_t span =
                traced ? client_spans[c].open("client.request", request) : -1;
            const std::string response =
                client->request(line, std::ref(tally));
            if (traced) client_spans[c].close(span);
            const double latency = now_s() - t0;
            log.exchanges.push_back(Exchange{static_cast<std::uint32_t>(seq),
                                             latency, fnv1a(response),
                                             tally.hash, tally.frames});
            log.frame_bytes += tally.bytes;
          }
        } catch (const std::exception& e) {
          log.io_error = e.what();
        }
      });
    }
    while (connected.load() < kServeClients) std::this_thread::yield();
    const double cpu_start = process_cpu_s();
    start = now_s();
    deadline = start + seconds;
    go.store(true);
    for (std::thread& t : threads) t.join();
    out.elapsed_s = now_s() - start;
    out.cpu_s = process_cpu_s() - cpu_start;
    return out;
  };

  std::vector<SpanLog> no_spans(kServeClients, SpanLog(false));
  run_phase(kWarmupSeconds, false, no_spans);
  const PhaseResult plain = run_phase(opt.seconds, false, no_spans);
  const double plain_rate =
      static_cast<double>(plain.requests()) / plain.elapsed_s;

  std::optional<JsonValue> before;
  std::optional<JsonValue> after;
  std::vector<SpanLog> client_spans(kServeClients, SpanLog(true));
  std::optional<PhaseResult> traced;
  const std::vector<std::size_t> traced_from = cursor;
  if (opt.trace) {
    before = daemon_metrics();
    traced = run_phase(opt.seconds, true, client_spans);
    after = daemon_metrics();
  }
  stop_daemon();
  const double rss_mb = peak_rss_mb();
  // Stopping is not set-up: each start is timed, the stop after it is not.
  std::vector<double> starts;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_s();
    start_daemon();
    starts.push_back(now_s() - t0);
    stop_daemon();
  }
  const double setup_s = median(starts);
  std::filesystem::remove(socket_path);

  // Verification (and, for the traced pass, the re-execution) on one thread
  // per client, against a fresh Service warmed like the daemon.
  serve::Service mirror;
  for (const std::string& line : inputs.warmup) mirror.handle(line);
  std::vector<Decomposition> decomp(kServeClients);
  std::vector<Failures> failures(kServeClients);
  // The CPU time the library spends answering each line of the untraced
  // window: the daemon's service time without the socket and the scheduler.
  std::vector<std::vector<double>> service_cpu(kServeClients);
  auto check_phase = [&](const PhaseResult& phase, bool decompose_it) {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kServeClients; ++c) {
      threads.emplace_back([&, c] {
        const RequestScript& script = inputs.clients[c];
        Failures& f = failures[c];
        const ClientLog& log = phase.clients[c];
        if (!log.io_error.empty()) f.add("client " + std::to_string(c) +
                                         " I/O error: " + log.io_error);
        auto prime = [&](std::string_view line) {
          const serve::Request r = serve::parse_request(std::string(line));
          if (const auto* s = std::get_if<serve::SolveKRequest>(&r.op)) {
            decomp[c].cache.solve(cache_key(*s));
          }
        };
        try {
          if (decompose_it) {
            for (const std::string& line : inputs.warmup) prime(line);
            for (std::size_t seq = 0; seq < traced_from[c]; ++seq) {
              prime(script.line(seq % script.size()));
            }
          }
          for (const Exchange& ex : log.exchanges) {
            const std::size_t index = ex.seq % script.size();
            const std::string line(script.line(index));
            const std::uint64_t request = c * kRequestStride + ex.seq;
            StreamTally tally;
            const std::int64_t span =
                decompose_it ? decomp[c].spans.open("serve.handle", request) : -1;
            const double cpu0 = thread_cpu_s();
            const serve::Service::Result res =
                mirror.handle_line(line, std::ref(tally));
            if (decompose_it) {
              decomp[c].spans.close(span);
            } else {
              service_cpu[c].push_back(thread_cpu_s() - cpu0);
            }
            if (res.response.rfind(R"({"ok":false)", 0) == 0) {
              f.add("error response to " + line + ": " + res.response);
              continue;
            }
            if (fnv1a(res.response) != ex.response_hash ||
                tally.hash != ex.stream_hash || tally.frames != ex.frames) {
              f.add("daemon answer differs from the library for " + line);
              continue;
            }
            if (script.ops[index] == ServeOp::kSubscribe &&
                parse_json(res.response).at("events").number !=
                    static_cast<double>(ex.frames)) {
              f.add("subscribe frames != response events for " + line);
              continue;
            }
            if (decompose_it) {
              decompose(line, request, res.response, decomp[c], f);
            }
          }
        } catch (const std::exception& e) {
          f.add(std::string("verification aborted: ") + e.what());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };
  check_phase(plain, false);
  if (traced) check_phase(*traced, true);
  report.attempted(plain.requests() + (traced ? traced->requests() : 0));
  for (const Failures& f : failures) report.failed(f.count, f.first);

  // Per-op latency of the untraced window.
  std::vector<std::vector<double>> by_op(kServeOps);
  std::vector<double> hits;
  std::vector<double> misses;
  std::vector<double> all;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    const RequestScript& script = inputs.clients[c];
    for (const Exchange& ex : plain.clients[c].exchanges) {
      const ServeOp op = script.ops[ex.seq % script.size()];
      by_op[static_cast<std::size_t>(op)].push_back(ex.latency_s);
      all.push_back(ex.latency_s);
      if (op == ServeOp::kSolveK) {
        (fresh_solve(script, ex.seq) ? misses : hits).push_back(ex.latency_s);
      }
    }
  }
  std::printf("serve-mix: %zu requests in %.3f s (%zu lines per client, %zu "
              "sent)\n",
              plain.requests(), plain.elapsed_s, per_client,
              *std::max_element(cursor.begin(), cursor.end()));
  std::vector<TailSummary> op_tails;
  for (std::size_t op = 0; op < kServeOps; ++op) {
    op_tails.push_back(summarize_tail(by_op[op]));
    report.latency(serve_op_name(static_cast<ServeOp>(op)), op_tails.back());
  }
  std::printf("latency %-22s p50 %10.4f ms  (n=%zu)\n", "solve_k hit",
              summarize_tail(hits).p50 * 1e3, hits.size());
  std::printf("latency %-22s p50 %10.4f ms  (n=%zu)\n", "solve_k miss",
              summarize_tail(misses).p50 * 1e3, misses.size());
  report.latency("all requests", summarize_tail(all, 0.90));
  std::vector<double> all_cpu;
  for (const std::vector<double>& v : service_cpu) {
    all_cpu.insert(all_cpu.end(), v.begin(), v.end());
  }
  const TailSummary service = summarize_tail(all_cpu, 0.90);
  report.latency("service CPU", service);
  std::printf("serve_rps %.3f 1/s\n", plain_rate);
  const double cpu_per_request =
      plain.cpu_s / static_cast<double>(plain.requests());
  const auto named = [&](const char* name, ServeOp op, bool p99) {
    const TailSummary& t = op_tails[static_cast<std::size_t>(op)];
    std::printf("%s %.4f ms (n=%zu, beyond p99=%zu)\n", name,
                (p99 ? t.tail : t.p50) * 1e3, t.n, t.beyond);
  };
  named("solve_k_p50_ms", ServeOp::kSolveK, false);
  named("solve_k_p99_ms", ServeOp::kSolveK, true);
  named("whatif_p50_ms", ServeOp::kPairWhatif, false);
  named("whatif_p99_ms", ServeOp::kPairWhatif, true);
  named("subscribe_p50_ms", ServeOp::kSubscribe, false);
  named("subscribe_p99_ms", ServeOp::kSubscribe, true);

  if (!opt.trace) {
    report.metric("setup_s", setup_s);
    report.metric("peak_rss_mb", rss_mb);
    report.metric("cpu_ms_per_op", cpu_per_request * 1e3);
    report.metric("op_cpu_p90_ms", service.tail * 1e3);
    return;
  }

  // Per-layer attribution of the traced window.
  SpanLog spans(true);
  for (const SpanLog& s : client_spans) spans.append(s);
  Decomposition total;
  for (const Decomposition& d : decomp) {
    spans.append(d.spans);
    total.hits += d.hits;
    total.misses += d.misses;
    total.hit_s += d.hit_s;
    total.miss_s += d.miss_s;
    total.whatif_s += d.whatif_s;
    total.whatif_audit_s += d.whatif_audit_s;
    total.events += d.events;
    total.max_resident_bytes = std::max(total.max_resident_bytes,
                                        d.max_resident_bytes);
  }
  const std::map<std::string, LayerTime> layers = layer_times(spans.spans());
  const double client_us = total_us(layers, "client.request");
  const double handle_us = total_us(layers, "serve.handle");
  const double children_us =
      total_us(layers, "serve.dispatch") - self_us(layers, "serve.dispatch");
  const auto delta = [&](const char* name) {
    return daemon_metric(*after, name) - daemon_metric(*before, name);
  };
  // The re-execution must hit and miss the cache exactly where the daemon did.
  const double daemon_hits = delta("shiraz_solver_cache_hits_total");
  const double daemon_misses = delta("shiraz_solver_cache_misses_total");
  if (static_cast<double>(total.hits) != daemon_hits ||
      static_cast<double>(total.misses) != daemon_misses) {
    report.fail_run("re-execution cache hits/misses " +
                    std::to_string(total.hits) + "/" +
                    std::to_string(total.misses) + " differ from the daemon's " +
                    std::to_string(daemon_hits) + "/" +
                    std::to_string(daemon_misses));
  }
  std::uint64_t frames = 0;
  std::uint64_t frame_bytes = 0;
  for (const ClientLog& c : traced->clients) {
    frame_bytes += c.frame_bytes;
    for (const Exchange& ex : c.exchanges) frames += ex.frames;
  }
  report.metric("serve.parse.calls",
                static_cast<double>(layers.count("serve.parse") != 0
                                        ? layers.at("serve.parse").calls
                                        : 0));
  report.metric("serve.parse.us", total_us(layers, "serve.parse"));
  report.metric("serve.socket.us", client_us - handle_us);
  report.metric("serve.stream.frames", static_cast<double>(frames));
  report.metric("serve.stream.bytes", static_cast<double>(frame_bytes));
  report.metric("serve.service.self_us", handle_us - children_us);
  report.metric("serve.dispatch.self_us", self_us(layers, "serve.dispatch"));
  report.metric("serve.whatif.audit_share",
                total.whatif_s > 0.0 ? total.whatif_audit_s / total.whatif_s : 0.0);
  report.metric("core.cache.hits", daemon_hits);
  report.metric("core.cache.misses", daemon_misses);
  report.metric("core.cache.hit_us", total.hit_s * 1e6);
  report.metric("core.cache.miss_us", total.miss_s * 1e6);
  report.metric("sim.trace.us", total_us(layers, "sim.trace"));
  report.metric("sim.trace.gaps", delta("shiraz_trace_gaps_materialized_total"));
  report.metric("sim.trace.resident_bytes", total.max_resident_bytes);
  report.metric("sim.campaign.us", total_us(layers, "sim.campaign"));
  report.metric("sim.kernel.replays", delta("shiraz_sim_kernel_replays_total"));
  report.metric("sim.event_loop.runs", delta("shiraz_sim_event_loop_runs_total"));
  report.metric("sim.audit_replay.us", total_us(layers, "sim.audit_replay"));
  report.metric("obs.audit.us", total_us(layers, "obs.audit"));
  report.metric("obs.audit.events", static_cast<double>(total.events));
  report.metric("setup.daemon.us", setup_s * 1e6);
  report.metric("trace.overhead",
                traced->cpu_s / static_cast<double>(traced->requests()) /
                        cpu_per_request -
                    1.0);
  std::printf("audit share of pair_whatif: %.4f (%.1f of %.1f ms re-executed)\n",
              total.whatif_s > 0.0 ? total.whatif_audit_s / total.whatif_s : 0.0,
              total.whatif_audit_s * 1e3, total.whatif_s * 1e3);
  print_layers(layers);
  if (!write_spans(spans_path(opt), spans.spans())) {
    report.fail_run("cannot write " + spans_path(opt));
  }
}

}  // namespace perfbench
