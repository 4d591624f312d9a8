// perfbench_driver — the repository benchmark's workload runner.
//
//   perfbench_driver --workload serve-mix|regime-sweep|fleet-10k
//                    --seed N --seconds S --trace 0|1
//   perfbench_driver --list-metrics
//
// Run it from the repository root: it reads testdata/scenarios and writes
// under .bench_out/ (the serve-mix socket, traced runs' spans).
// perfbench/run.py builds it and is the documented entry point; see
// perfbench/README.md.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string spans_path(const Options& opt) {
  return std::string(kOutDir) + "/" + opt.workload + "-seed" +
         std::to_string(opt.seed) + ".spans.json";
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "serve-mix|regime-sweep|fleet-10k --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const MetricDef& d : end_to_end_metrics()) {
        std::printf("end_to_end %s %s\n", d.name, d.unit);
      }
      for (const MetricDef& d : per_layer_metrics()) {
        std::printf("per_layer %s %s\n", d.name, d.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) {
    return usage("--seconds must be in (0, 120]");
  }

  // Load-generator hygiene: everything needed to reproduce this run.
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("threads: clients=%zu daemon_threads=%zu campaign_workers=%zu "
              "nproc=%u\n",
              kServeClients, kDaemonThreads, kCampaignWorkers,
              std::thread::hardware_concurrency());
  std::printf("build: compiler=%s build_type=%s\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  Report report(opt.trace);
  try {
    std::filesystem::create_directories(kOutDir);
    if (opt.workload == "serve-mix") {
      run_serve_mix(opt, report);
    } else if (opt.workload == "regime-sweep") {
      run_regime_sweep(opt, report);
    } else if (opt.workload == "fleet-10k") {
      run_fleet(opt, report);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    report.fail_run(std::string("uncaught exception: ") + e.what());
  }
  return report.finish();
}
