#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"cpu_ms_per_op", "ms"},
      {"op_cpu_p90_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      // serve: parse, socket, the service's own render + dispatch
      {"serve.parse.calls", "count"},
      {"serve.parse.us", "us"},
      {"serve.socket.us", "us"},
      {"serve.stream.frames", "count"},
      {"serve.stream.bytes", "bytes"},
      {"serve.service.self_us", "us"},
      {"serve.dispatch.self_us", "us"},
      {"serve.whatif.audit_share", "ratio"},
      // core: the solver cache
      {"core.cache.hits", "count"},
      {"core.cache.misses", "count"},
      {"core.cache.hit_us", "us"},
      {"core.cache.miss_us", "us"},
      // sim: trace materialization, campaigns, the k sweep, the audit replay
      {"sim.trace.us", "us"},
      {"sim.trace.gaps", "count"},
      {"sim.trace.resident_bytes", "bytes"},
      {"sim.campaign.us", "us"},
      {"sim.kernel.replays", "count"},
      {"sim.event_loop.runs", "count"},
      {"sim.sweep.us", "us"},
      {"sim.sweep.campaigns", "count"},
      {"sim.audit_replay.us", "us"},
      {"sweep.scenario.self_us", "us"},
      {"sweep.search.self_us", "us"},
      // obs: the invariant audit
      {"obs.audit.us", "us"},
      {"obs.audit.events", "count"},
      // sched: the workload manager
      {"sched.manager.us", "us"},
      {"sched.manager.job_runs", "count"},
      {"sched.jobs.completed", "count"},
      {"sched.solve.analytical", "count"},
      {"fleet.cell.self_us", "us"},
      // set-up calls
      {"setup.daemon.us", "us"},
      {"setup.scenarios.us", "us"},
      {"setup.arrivals.us", "us"},
      // traced vs untraced time per unit of work, minus one
      {"trace.overhead", "ratio"},
  };
  return kMetrics;
}

void Report::metric(const std::string& name, double value) {
  values_[name] = value;
}

void Report::failed(std::uint64_t n, const std::string& why) {
  if (n == 0) return;
  if (failed_ < 5) std::printf("FAILED: %s\n", why.c_str());
  failed_ += n;
}

void Report::fail_run(const std::string& why) {
  std::printf("RUN FAILED: %s\n", why.c_str());
  run_failed_ = true;
}

void Report::latency(const std::string& label, const TailSummary& s) {
  std::printf("latency %-22s p50 %10.4f ms  p%-4g %10.4f ms  n=%zu  beyond=%zu\n",
              label.c_str(), s.p50 * 1e3, s.q * 100.0, s.tail * 1e3, s.n,
              s.beyond);
  if (!s.tail_supported()) {
    fail_run(label + ": only " + std::to_string(s.beyond) + " samples beyond p" +
             std::to_string(static_cast<int>(s.q * 100.0)) + " (need " +
             std::to_string(kMinBeyond) + ")");
  }
}

int Report::finish() {
  const std::vector<MetricDef>& defs =
      trace_ ? per_layer_metrics() : end_to_end_metrics();
  bool ok = !run_failed_ && failed_ == 0 && attempted_ > 0;
  std::printf("\nfailed_ratio %.6g ratio (%llu of %llu operations)\n",
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 0.0,
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::string json;
  for (const MetricDef& d : defs) {
    double v = 0.0;
    const auto it = values_.find(d.name);
    if (it != values_.end()) {
      v = it->second;
    } else if (!trace_) {
      std::printf("RUN FAILED: end-to-end metric %s was not measured\n", d.name);
      ok = false;
    }
    if (!std::isfinite(v) || (!trace_ && v <= 0.0)) {
      std::printf("RUN FAILED: metric %s = %g is not a positive number\n",
                  d.name, v);
      ok = false;
      v = 0.0;
    }
    std::printf("metric %-28s %18.6f %s\n", d.name, v, d.unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  json.empty() ? "" : ",", d.name, v, d.unit);
    json += buf;
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), json.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

}  // namespace perfbench
