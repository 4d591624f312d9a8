// The serve request handler, independent of any transport.
//
// Service::handle_line maps one shiraz-serve-v1 request line to one response
// line. The socket daemon (serve/server.h), the load bench, and the
// in-process tests all call this same entry point, which is what makes
// "daemon response == direct library call" a byte-for-byte checkable
// contract: solve_k, oci, checkpoint_now, pair_whatif, and subscribe
// responses are pure functions of the request (the whatif seed is pinned),
// so two Service instances — whatever their cache or counter state — render
// identical bytes for identical requests. subscribe additionally streams
// the audited event lines through the caller-supplied StreamSink before the
// response lands; the stream renders the deterministic audit events, so it
// is byte-identical across instances too.
//
// Solves go through the shared core::SolverCache: hand the daemon the same
// cache instance as a sched::WorkloadManager and a 10k-job campaign and a
// live query hit the same memo table. pair_whatif runs replay-backed
// campaigns through sim::TraceStore; every Shiraz repetition narrates into
// obs::InvariantAuditor as it runs on the flat kernel, so the audited run is
// the answer run. The audited event stream is forwarded to the configured
// EventSink — the request-audit log.
//
// Telemetry lives on an obs::MetricsRegistry (shiraz_serve_* counters, a
// request-latency histogram, and — folded in via the shared registry — the
// solver cache's and the whatif engines' counters). The `metrics` op
// snapshots it as shiraz-metrics-v1 JSON or Prometheus text; `stats` keeps
// its legacy fields bit-for-bit and appends the same snapshot under a
// trailing "metrics" key.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "core/solver_cache.h"
#include "serve/protocol.h"

namespace shiraz::obs {
class Counter;
class EventSink;
class Histogram;
class MetricsRegistry;
}  // namespace shiraz::obs

namespace shiraz::serve {

struct ServiceConfig {
  /// Shared solver cache; null = the service owns a private one counting
  /// into the service registry.
  std::shared_ptr<const core::SolverCache> cache;
  /// Upper bound on pair_whatif repetitions per request (DoS guard).
  std::uint64_t max_whatif_reps = 256;
  /// When non-null, every audited pair_whatif repetition's event stream is
  /// forwarded here (rep-stamped, repetition order) — the request-audit
  /// log. The sink is called under an internal mutex, so a plain recorder
  /// is safe even with concurrent clients.
  obs::EventSink* audit_log = nullptr;
  /// Registry the service counts into. Resolution order: this when
  /// non-null, else the shared cache's registry, else a private one — so
  /// the default daemon's `metrics` snapshot folds the cache counters in.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// Per-op request counters (exact), read back from the registry.
struct ServiceCounters {
  std::uint64_t requests = 0;  ///< total lines handled, errors included
  std::uint64_t errors = 0;
  std::uint64_t solve_k = 0;
  std::uint64_t oci = 0;
  std::uint64_t checkpoint_now = 0;
  std::uint64_t pair_whatif = 0;
  std::uint64_t subscribe = 0;
  std::uint64_t stats = 0;
  std::uint64_t metrics = 0;
  std::uint64_t shutdown = 0;
  /// pair_whatif/subscribe repetitions audited by the InvariantAuditor.
  std::uint64_t audited_reps = 0;
};

class Service {
 public:
  struct Result {
    std::string response;  ///< one JSON line, no trailing newline
    bool shutdown = false; ///< the request asked the daemon to stop
  };

  /// Receives subscribe stream lines (no trailing newline), in order, from
  /// the thread handling the request, before handle_line returns.
  using StreamSink = std::function<void(const std::string&)>;

  explicit Service(ServiceConfig config = {});
  ~Service();  // out-of-line: Instruments is incomplete here

  /// Handles one request line; never throws — malformed input becomes an
  /// {"ok":false,...} response. Thread-safe: concurrent connections may
  /// call this simultaneously. Without a StreamSink, subscribe still
  /// answers (same response bytes) but its event lines go nowhere.
  Result handle_line(const std::string& line);
  Result handle_line(const std::string& line, const StreamSink& stream);

  /// handle_line for callers that don't route shutdown (bench, tests).
  std::string handle(const std::string& line) {
    return handle_line(line).response;
  }

  const std::shared_ptr<const core::SolverCache>& cache() const {
    return cache_;
  }
  /// The registry this service counts into (never null).
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const {
    return metrics_;
  }
  ServiceCounters counters() const;

 private:
  std::string dispatch(const Request& request, bool* shutdown,
                       const StreamSink& stream);
  std::string do_solve_k(const SolveKRequest& r, std::optional<double> id);
  std::string do_oci(const OciRequest& r, std::optional<double> id);
  std::string do_checkpoint_now(const CheckpointNowRequest& r,
                                std::optional<double> id);
  /// Shared pair_whatif/subscribe body; `stream` null = no event streaming.
  std::string do_whatif(const char* op, const PairWhatifRequest& r,
                        std::optional<double> id, const StreamSink* stream);
  std::string do_stats(std::optional<double> id);
  std::string do_metrics(const MetricsRequest& r, std::optional<double> id);

  ServiceConfig config_;
  std::shared_ptr<const core::SolverCache> cache_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  /// Registry handles resolved once at construction.
  struct Instruments;
  std::unique_ptr<const Instruments> ins_;
  mutable std::mutex mu_;  ///< guards the audit_log sink
};

}  // namespace shiraz::serve
