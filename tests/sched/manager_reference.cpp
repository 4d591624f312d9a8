#include "manager_reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "checkpoint/oci.h"
#include "common/error.h"

namespace shiraz::sched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_bits(double want, double got, const std::string& field) {
  EXPECT_EQ(bits(want), bits(got))
      << field << ": want " << want << ", got " << got;
}
}  // namespace

CampaignStats reference_run(const WorkloadManager& mgr,
                            const reliability::Distribution& failure_dist,
                            const std::vector<BatchJobSpec>& jobs,
                            Policy policy, Rng& rng) {
  const ManagerConfig& config = mgr.config();
  SHIRAZ_REQUIRE(config.sim_solve_reps == 0,
                 "the reference has no sim-backed solve route");
  const reliability::DistributionPtr failures = failure_dist.clone();
  SHIRAZ_REQUIRE(!jobs.empty(), "no jobs submitted");

  CampaignStats stats;
  stats.horizon = config.horizon;
  stats.jobs.resize(jobs.size());
  std::vector<Seconds> remaining(jobs.size());
  std::vector<Seconds> interval(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    stats.jobs[i].name = jobs[i].name;
    stats.jobs[i].submit_time = jobs[i].submit_time;
    remaining[i] = jobs[i].work;
    interval[i] = checkpoint::optimal_interval(
        config.nominal_mtbf, jobs[i].checkpoint_cost, config.oci_formula);
  }

  const std::size_t n = jobs.size();
  std::vector<std::size_t> arrivals(n);
  std::iota(arrivals.begin(), arrivals.end(), std::size_t{0});
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs[a].submit_time < jobs[b].submit_time;
                   });
  std::vector<char> taken(n, 0);
  std::size_t head = 0;
  auto advance_head = [&]() {
    while (head < n && taken[head] != 0) ++head;
  };

  std::vector<std::size_t> active;
  active.reserve(2);
  std::optional<int> pair_k;
  std::size_t gap_index = 0;
  std::size_t gap_ckpts = 0;

  Seconds now = 0.0;
  Seconds next_fail = failures->sample(rng);

  auto light_of_pair = [&]() {
    return jobs[active[0]].checkpoint_cost <= jobs[active[1]].checkpoint_cost
               ? active[0]
               : active[1];
  };
  auto heavy_of_pair = [&]() {
    return jobs[active[0]].checkpoint_cost <= jobs[active[1]].checkpoint_cost
               ? active[1]
               : active[0];
  };

  auto resolve_pair = [&]() {
    if (policy != Policy::kShirazPairing || active.size() < 2) {
      pair_k = std::nullopt;
      return;
    }
    if (config.fixed_pair_k > 0) {
      pair_k = config.fixed_pair_k;
      return;
    }
    const Seconds delta_lw = jobs[light_of_pair()].checkpoint_cost;
    const Seconds delta_hw = jobs[heavy_of_pair()].checkpoint_cost;
    pair_k = mgr.solver_cache()->solve(mgr.cache_key(delta_lw, delta_hw)).k;
  };

  auto take = [&](std::size_t pos) {
    const std::size_t job = arrivals[pos];
    taken[pos] = 1;
    active.push_back(job);
    if (!stats.jobs[job].started()) stats.jobs[job].start_time = now;
    advance_head();
  };

  auto pick_second = [&]() -> std::optional<std::size_t> {
    advance_head();
    if (head >= n || jobs[arrivals[head]].submit_time > now) return std::nullopt;
    if (config.slot_fill == SlotFill::kFcfs) return head;
    const double occupant = jobs[active[0]].checkpoint_cost;
    std::size_t best = head;
    double best_contrast = -1.0;
    for (std::size_t p = head; p < n; ++p) {
      if (taken[p] != 0) continue;
      if (jobs[arrivals[p]].submit_time > now) break;
      const double contrast =
          std::abs(std::log(jobs[arrivals[p]].checkpoint_cost / occupant));
      if (contrast > best_contrast) {
        best_contrast = contrast;
        best = p;
      }
    }
    return best;
  };

  auto activate = [&]() {
    bool changed = false;
    advance_head();
    if (active.empty() && head < n && jobs[arrivals[head]].submit_time <= now) {
      take(head);
      changed = true;
    }
    if (active.size() == 1) {
      if (const auto pos = pick_second()) {
        take(*pos);
        changed = true;
      }
    }
    if (changed) {
      gap_ckpts = 0;
      resolve_pair();
    }
    return changed;
  };

  auto next_arrival = [&]() {
    return head < n ? jobs[arrivals[head]].submit_time : kInf;
  };

  auto pick_current = [&]() -> std::size_t {
    if (active.size() == 1) return active[0];
    if (policy == Policy::kShirazPairing && pair_k) {
      if (*pair_k > 0 && gap_ckpts < static_cast<std::size_t>(*pair_k)) {
        return light_of_pair();
      }
      return heavy_of_pair();
    }
    return active[gap_index % active.size()];
  };

  auto handle_failure = [&](std::optional<std::size_t> hit) {
    stats.failures += 1.0;
    ++gap_index;
    gap_ckpts = 0;
    next_fail = now + failures->sample(rng);
    if (hit) {
      stats.jobs[*hit].failures_hit += 1.0;
      if (config.restart_cost > 0.0) {
        const Seconds until =
            std::min(now + config.restart_cost, config.horizon);
        stats.jobs[*hit].lost += until - now;
        now = until;
      }
    }
  };

  activate();
  while (now < config.horizon) {
    if (active.empty()) {
      advance_head();
      if (head == n) break;
      const Seconds until = std::min({next_arrival(), next_fail, config.horizon});
      stats.idle += until - now;
      now = until;
      if (now >= config.horizon) break;
      if (now >= next_fail) handle_failure(std::nullopt);
      activate();
      continue;
    }

    const std::size_t job = pick_current();
    BatchJobRecord& rec = stats.jobs[job];

    if (next_fail <= now) {
      handle_failure(job);
      activate();
      continue;
    }

    Seconds job_interval = interval[job];
    if (policy == Policy::kShirazPairing && config.hw_stretch > 1 &&
        active.size() == 2 && pair_k && job == heavy_of_pair()) {
      job_interval *= static_cast<double>(config.hw_stretch);
    }

    // One segment per round: compute (capped by the remaining work) then
    // checkpoint (skipped on the completing segment).
    const bool completing = remaining[job] <= job_interval;
    const Seconds run_time = completing ? remaining[job] : job_interval;
    const Seconds delta = completing ? 0.0 : jobs[job].checkpoint_cost;
    const Seconds seg_end = now + run_time + delta;

    if (config.horizon <= std::min(seg_end, next_fail)) {
      rec.lost += config.horizon - now;
      now = config.horizon;
      break;
    }
    if (next_fail < seg_end) {
      rec.lost += next_fail - now;
      now = next_fail;
      handle_failure(job);
      activate();
      continue;
    }

    now = seg_end;
    rec.useful += run_time;
    remaining[job] -= run_time;
    if (completing) {
      rec.completion_time = now;
      stats.makespan = std::max(stats.makespan, now);
      active.erase(std::find(active.begin(), active.end(), job));
      gap_ckpts = 0;
      if (!activate()) resolve_pair();
    } else {
      rec.io += delta;
      rec.checkpoints += 1.0;
      if (active.size() == 2 && job == light_of_pair()) ++gap_ckpts;
      activate();
    }
  }

  stats.elapsed = std::min(now, config.horizon);
  for (BatchJobRecord& rec : stats.jobs) {
    if (rec.started()) rec.started_reps = 1;
    if (rec.completed()) {
      rec.completed_reps = 1;
    } else {
      stats.makespan = config.horizon;
    }
  }
  return stats;
}

void expect_bit_identical(const CampaignStats& want, const CampaignStats& got) {
  expect_same_bits(want.makespan, got.makespan, "makespan");
  expect_same_bits(want.horizon, got.horizon, "horizon");
  expect_same_bits(want.elapsed, got.elapsed, "elapsed");
  expect_same_bits(want.failures, got.failures, "failures");
  expect_same_bits(want.idle, got.idle, "idle");
  EXPECT_EQ(want.reps, got.reps);
  ASSERT_EQ(want.jobs.size(), got.jobs.size());
  for (std::size_t j = 0; j < want.jobs.size(); ++j) {
    const BatchJobRecord& a = want.jobs[j];
    const BatchJobRecord& b = got.jobs[j];
    const std::string at = "jobs[" + std::to_string(j) + "].";
    EXPECT_EQ(a.name, b.name) << at << "name";
    expect_same_bits(a.submit_time, b.submit_time, at + "submit_time");
    expect_same_bits(a.start_time, b.start_time, at + "start_time");
    expect_same_bits(a.completion_time, b.completion_time,
                     at + "completion_time");
    expect_same_bits(a.useful, b.useful, at + "useful");
    expect_same_bits(a.io, b.io, at + "io");
    expect_same_bits(a.lost, b.lost, at + "lost");
    expect_same_bits(a.checkpoints, b.checkpoints, at + "checkpoints");
    expect_same_bits(a.failures_hit, b.failures_hit, at + "failures_hit");
    EXPECT_EQ(a.started_reps, b.started_reps) << at << "started_reps";
    EXPECT_EQ(a.completed_reps, b.completed_reps) << at << "completed_reps";
    if (::testing::Test::HasFailure()) return;  // one bad record is enough
  }
}

void expect_bit_identical(const CampaignDistribution& want,
                          const CampaignDistribution& got) {
  EXPECT_EQ(want.reps, got.reps);
  EXPECT_EQ(want.job_count, got.job_count);
  expect_same_bits(want.completion_rate, got.completion_rate,
                   "completion_rate");
  auto same_summary = [](const DistSummary& a, const DistSummary& b,
                         const std::string& at) {
    EXPECT_EQ(a.count, b.count) << at << "count";
    expect_same_bits(a.mean, b.mean, at + "mean");
    expect_same_bits(a.p50, b.p50, at + "p50");
    expect_same_bits(a.p95, b.p95, at + "p95");
    expect_same_bits(a.p99, b.p99, at + "p99");
    expect_same_bits(a.max, b.max, at + "max");
  };
  same_summary(want.turnaround, got.turnaround, "turnaround.");
  same_summary(want.slowdown, got.slowdown, "slowdown.");
  same_summary(want.makespan, got.makespan, "makespan.");
  expect_bit_identical(want.mean, got.mean);
}

}  // namespace shiraz::sched
