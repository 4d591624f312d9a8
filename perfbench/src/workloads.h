// The three workloads. Each one generates its inputs from opt.seed, sets up,
// drives kWarmupSeconds of untimed load, measures for opt.seconds, times
// kSetupRepeats more set-ups (setup_s is their median; timed after the load,
// when the cores run at their steady speed), checks every output it
// produced, and records its metrics on the report. Its timings are CPU
// time (process_cpu_s): on a shared host, wall time measures the other
// tenants as much as the program. A traced run (opt.trace) measures the same
// workload twice with the same seed — first untraced, then with spans around
// every public call — and reports the per-layer metrics of the traced pass
// plus the overhead of tracing: the ratio of the two passes' CPU time per
// unit of work, minus one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

/// The command line: --workload NAME --seed N --seconds S --trace 0|1.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Where runs put their daemon socket and traced runs their spans,
/// relative to the working directory (the repository root).
inline constexpr const char* kOutDir = ".bench_out";

/// Set-ups timed per run; setup_s is their median.
inline constexpr std::size_t kSetupRepeats = 15;

/// Untimed load before the first window: fills caches and lets an idle
/// machine's cores reach their steady speed.
inline constexpr double kWarmupSeconds = 2.0;

/// Thread counts of the load: each stays at or below nproc, and at most
/// three of them are busy at once.
inline constexpr std::size_t kServeClients = 3;
inline constexpr std::size_t kDaemonThreads = 3;
inline constexpr std::size_t kCampaignWorkers = 2;

void run_serve_mix(const Options& opt, Report& report);
void run_regime_sweep(const Options& opt, Report& report);
void run_fleet(const Options& opt, Report& report);

/// Median wall time of kSetupRepeats calls of `setup`, in seconds.
template <class Setup>
double time_setup(Setup&& setup) {
  std::vector<double> times;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    const double t0 = now_s();
    setup();
    times.push_back(now_s() - t0);
  }
  return median(times);
}

/// This process's peak resident set, in MiB.
double peak_rss_mb();

/// Path of a traced run's span file: <kOutDir>/<workload>-seed<seed>.spans.json.
std::string spans_path(const Options& opt);

}  // namespace perfbench
