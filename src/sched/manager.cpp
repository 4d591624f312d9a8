#include "sched/manager.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/job.h"
#include "sim/optimizer.h"

namespace shiraz::sched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Resolved registry handles for one run(); null registry = all null.
/// Counters are pure observers of decisions already taken — no campaign
/// branch reads them — and u64 sums commute, so totals are worker-invariant.
struct ManagerCounters {
  obs::Counter* submitted = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* solve_fixed = nullptr;
  obs::Counter* solve_sim = nullptr;
  obs::Counter* solve_analytical = nullptr;

  explicit ManagerCounters(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    submitted = &registry->counter("shiraz_sched_jobs_submitted_total",
                                   "jobs submitted across campaigns");
    completed = &registry->counter("shiraz_sched_jobs_completed_total",
                                   "jobs completed across campaigns");
    solve_fixed = &registry->counter("shiraz_sched_solve_fixed_total",
                                     "pair solves short-circuited by fixed_pair_k");
    solve_sim = &registry->counter("shiraz_sched_solve_sim_total",
                                   "pair solves routed through simulation");
    solve_analytical = &registry->counter(
        "shiraz_sched_solve_analytical_total",
        "pair solves routed through the analytical cache");
  }
};

/// Runs repetitions 0 .. reps-1 (`run_rep` on Rng(seed).fork(r)) and hands
/// each to `fold` on the calling thread in repetition order, as soon as it
/// and every earlier repetition have landed; a folded repetition is freed at
/// once. With workers > 1 at most workers + 1 repetitions are in flight, so
/// about workers + 2 campaigns' stats are alive instead of all `reps`.
/// Exceptions keep parallel_for_indexed's contract: every submitted
/// repetition finishes before this returns, and the lowest-index failure —
/// the first one met, since repetitions are awaited in order — is rethrown.
template <typename RunRep, typename Fold>
void fold_reps(std::size_t reps, std::uint64_t seed,
               const CampaignRunOptions& options, RunRep&& run_rep,
               Fold&& fold) {
  SHIRAZ_REQUIRE(reps >= 1, "need at least one repetition");
  const Rng master(seed);
  auto run_one = [&](std::size_t r) {
    Rng rng = master.fork(r);
    return run_rep(rng);
  };
  if (options.workers <= 1 || reps == 1) {
    for (std::size_t r = 0; r < reps; ++r) fold(run_one(r));
    return;
  }
  common::PoolHandle pool(options.pool, std::min(options.workers, reps));
  // get() releases a future's result, so only repetitions that are in flight
  // or landed-but-unfolded hold a CampaignStats.
  std::vector<std::future<CampaignStats>> reps_out(reps);
  std::size_t submitted = 0;
  try {
    for (std::size_t r = 0; r < reps; ++r) {
      for (; submitted < reps && submitted <= r + options.workers; ++submitted) {
        reps_out[submitted] = pool.get().submit(
            [&run_one, i = submitted] { return run_one(i); });
      }
      fold(reps_out[r].get());
    }
  } catch (...) {
    for (std::future<CampaignStats>& f : reps_out) {
      if (f.valid()) f.wait();
    }
    throw;
  }
}

}  // namespace

/// Memo for sim-backed switch-point solves: one entry per distinct
/// (delta_LW, delta_HW) signature (the other solve inputs are fixed by the
/// manager's config). The solve is deterministic, so a racing duplicate
/// compute lands on identical bits and first-insert-wins is safe.
struct WorkloadManager::SimSolveMemo {
  std::mutex mu;
  std::map<std::pair<Seconds, Seconds>, std::optional<int>> k_by_pair;
};

/// What a campaign derives from its job list alone (given the manager's
/// config), validated and built once per run()/run_many()/run_distribution()
/// call and read by every repetition of it. Queue positions and classes are
/// 32-bit, which halves the index next to size_t.
struct WorkloadManager::JobIndex {
  using Pos = std::uint32_t;
  /// The pending queue: job indices in submit order (stable, so equal submit
  /// times keep list order). A "position" below indexes this list.
  std::vector<Pos> arrivals;
  /// Each job's checkpoint interval at the nominal MTBF.
  std::vector<Seconds> interval;
  // Contrast slot fill only (empty under FCFS): queue positions grouped by
  // exact checkpoint cost. Position p belongs to class class_of[p], the next
  // position of its class is next_of[p] (n after the last), and class c
  // starts at first_of[c].
  std::vector<Pos> class_of;
  std::vector<Pos> next_of;
  std::vector<Pos> first_of;

  JobIndex(const std::vector<BatchJobSpec>& jobs, const ManagerConfig& config);
};

WorkloadManager::JobIndex::JobIndex(const std::vector<BatchJobSpec>& jobs,
                                    const ManagerConfig& config) {
  SHIRAZ_REQUIRE(!jobs.empty(), "no jobs submitted");
  SHIRAZ_REQUIRE(jobs.size() < std::numeric_limits<Pos>::max(),
                 "too many jobs for one campaign");
  for (const BatchJobSpec& job : jobs) {
    SHIRAZ_REQUIRE(job.work > 0.0, "job work must be positive: " + job.name);
    SHIRAZ_REQUIRE(job.checkpoint_cost > 0.0,
                   "job checkpoint cost must be positive: " + job.name);
    SHIRAZ_REQUIRE(job.submit_time >= 0.0, "negative submit time: " + job.name);
  }
  const Pos n = static_cast<Pos>(jobs.size());
  interval.resize(n);
  for (Pos i = 0; i < n; ++i) {
    interval[i] = checkpoint::optimal_interval(
        config.nominal_mtbf, jobs[i].checkpoint_cost, config.oci_formula);
  }
  arrivals.resize(n);
  std::iota(arrivals.begin(), arrivals.end(), Pos{0});
  std::stable_sort(arrivals.begin(), arrivals.end(), [&](Pos a, Pos b) {
    return jobs[a].submit_time < jobs[b].submit_time;
  });
  if (config.slot_fill != SlotFill::kContrast) return;

  // One pass in queue order: a cost seen for the first time opens a class,
  // a repeat links behind its class's latest position.
  std::map<Seconds, Pos> class_by_cost;
  std::vector<Pos> last_of;
  class_of.resize(n);
  next_of.assign(n, n);
  for (Pos pos = 0; pos < n; ++pos) {
    const auto [it, fresh] = class_by_cost.try_emplace(
        jobs[arrivals[pos]].checkpoint_cost, static_cast<Pos>(first_of.size()));
    const Pos c = it->second;
    if (fresh) {
      first_of.push_back(pos);
      last_of.push_back(pos);
    } else {
      next_of[last_of[c]] = pos;
      last_of[c] = pos;
    }
    class_of[pos] = c;
  }
}

WorkloadManager::WorkloadManager(const reliability::Distribution& failure_dist,
                                 const ManagerConfig& config)
    : WorkloadManager(failure_dist, config,
                      std::make_shared<core::SolverCache>()) {}

WorkloadManager::WorkloadManager(const reliability::Distribution& failure_dist,
                                 const ManagerConfig& config,
                                 std::shared_ptr<const core::SolverCache> cache)
    : failure_dist_(failure_dist.clone()), config_(config),
      cache_(std::move(cache)),
      sim_memo_(std::make_shared<SimSolveMemo>()) {
  SHIRAZ_REQUIRE(config.horizon > 0.0, "horizon must be positive");
  SHIRAZ_REQUIRE(config.nominal_mtbf > 0.0, "nominal MTBF must be positive");
  SHIRAZ_REQUIRE(config.hw_stretch >= 1, "stretch must be >= 1");
  SHIRAZ_REQUIRE(config.restart_cost >= 0.0, "restart cost must be >= 0");
  SHIRAZ_REQUIRE(config.fixed_pair_k >= 0, "fixed pair k must be >= 0");
  SHIRAZ_REQUIRE(config.sim_solve_max_k >= 1, "sim solve max k must be >= 1");
  SHIRAZ_REQUIRE(cache_ != nullptr, "solver cache must not be null");
}

std::optional<int> WorkloadManager::sim_solve_k(Seconds delta_lw,
                                                Seconds delta_hw) const {
  const std::pair<Seconds, Seconds> sig(delta_lw, delta_hw);
  {
    const std::lock_guard<std::mutex> lock(sim_memo_->mu);
    const auto it = sim_memo_->k_by_pair.find(sig);
    if (it != sim_memo_->k_by_pair.end()) return it->second;
  }
  // The same model signature the analytical path solves, evaluated by
  // simulation against the real failure distribution instead of the nominal
  // Weibull model. The solve's failure streams come from sim_solve_seed —
  // disjoint from the campaign's own Rng — and the engine's flat replay
  // kernel (free restarts/switches, periodic OCI schedules) batches the
  // whole k scan, so the solve costs milliseconds, not campaigns.
  sim::EngineConfig ecfg;
  ecfg.t_total = config_.horizon;
  const sim::Engine engine(*failure_dist_, ecfg);
  const sim::SimJob lw = sim::SimJob::at_oci("lw", delta_lw, config_.nominal_mtbf,
                                             1, config_.oci_formula);
  const sim::SimJob hw = sim::SimJob::at_oci("hw", delta_hw, config_.nominal_mtbf,
                                             config_.hw_stretch,
                                             config_.oci_formula);
  const sim::SimSwitchSolution sol = sim::find_fair_k_by_simulation(
      engine, lw, hw, 1, config_.sim_solve_max_k, config_.sim_solve_reps,
      config_.sim_solve_seed, /*workers=*/1);
  const std::lock_guard<std::mutex> lock(sim_memo_->mu);
  return sim_memo_->k_by_pair.try_emplace(sig, sol.k).first->second;
}

core::SolverCacheKey WorkloadManager::cache_key(Seconds delta_lw,
                                                Seconds delta_hw) const {
  core::SolverCacheKey key;
  key.mtbf = config_.nominal_mtbf;
  key.weibull_shape = config_.weibull_shape;
  key.epsilon = config_.epsilon;
  key.t_total = config_.horizon;
  key.oci_formula = config_.oci_formula;
  key.delta_lw = delta_lw;
  key.delta_hw = delta_hw;
  key.hw_stretch = config_.hw_stretch;
  return key;
}

CampaignStats WorkloadManager::run(const std::vector<BatchJobSpec>& jobs,
                                   Policy policy, Rng& rng) const {
  return run(jobs, JobIndex(jobs, config_), policy, rng);
}

CampaignStats WorkloadManager::run(const std::vector<BatchJobSpec>& jobs,
                                   const JobIndex& index, Policy policy,
                                   Rng& rng) const {
  const ManagerCounters counters(config_.metrics);
  if (counters.submitted != nullptr) counters.submitted->add(jobs.size());

  const std::size_t n = jobs.size();
  const std::vector<JobIndex::Pos>& arrivals = index.arrivals;
  const std::vector<Seconds>& interval = index.interval;
  CampaignStats stats;
  stats.horizon = config_.horizon;
  stats.jobs.resize(n);
  std::vector<Seconds> remaining(n);
  for (std::size_t i = 0; i < n; ++i) {
    stats.jobs[i].name = jobs[i].name;
    stats.jobs[i].submit_time = jobs[i].submit_time;
    remaining[i] = jobs[i].work;
  }

  // Pending jobs as the submit-sorted arrival list walked by a head cursor;
  // `taken` marks positions activated out of order (contrast slot-fill), so
  // queue operations stay O(1) amortized at 10k-job scale.
  std::vector<char> taken(n, 0);
  std::size_t head = 0;
  auto advance_head = [&]() {
    while (head < n && taken[head] != 0) ++head;
  };

  // Contrast fill's view of the queue by cost class. A class gives up its
  // positions in queue order (every take is of a class's oldest untaken
  // position), so class_head[c] — that position, n once c is used up — is
  // all a class needs. `due` holds the classes whose head lies before
  // due_end, the first position not submitted by the latest fill, and
  // due_slot[c] is c's index in it.
  const bool contrast_fill = config_.slot_fill == SlotFill::kContrast;
  std::vector<JobIndex::Pos> class_head = index.first_of;
  std::vector<JobIndex::Pos> due;
  due.reserve(class_head.size());
  std::vector<JobIndex::Pos> due_slot(class_head.size());
  std::size_t due_end = 0;

  std::vector<std::size_t> active;  // at most two machine-sharing jobs
  active.reserve(2);
  std::optional<int> pair_k;  // Shiraz switch point; nullopt = alternate
  std::size_t gap_index = 0;
  // Checkpoints the pair's light member took in the current gap (the only
  // count the k-switch consults). Reset on failures and active-set changes.
  std::size_t gap_ckpts = 0;

  Seconds now = 0.0;
  Seconds next_fail = failure_dist_->sample(rng);

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

  // This run's switch point per (delta_LW, delta_HW) signature, in front of
  // whichever route solves it: a catalog-drawn stream changes pair thousands
  // of times but meets a few dozen signatures, so the shared route (and its
  // lock) sees each signature once per run. Keys compare by exact double
  // equality, as SolverCacheKey does.
  std::map<std::pair<Seconds, Seconds>, std::optional<int>> k_by_signature;

  auto resolve_pair = [&]() {
    if (policy != Policy::kShirazPairing || active.size() < 2) {
      pair_k = std::nullopt;
      return;
    }
    if (config_.fixed_pair_k > 0) {
      pair_k = config_.fixed_pair_k;
      if (counters.solve_fixed != nullptr) counters.solve_fixed->add(1);
      return;
    }
    const Seconds delta_lw = jobs[light_of_pair()].checkpoint_cost;
    const Seconds delta_hw = jobs[heavy_of_pair()].checkpoint_cost;
    const bool by_sim = config_.sim_solve_reps > 0;
    const auto [it, fresh] =
        k_by_signature.try_emplace(std::pair(delta_lw, delta_hw));
    if (fresh) {
      // Simulation-backed solves run on the flat replay kernel, memoized per
      // signature across runs (see sim_solve_k); analytical ones go through
      // the shared cache, where every distinct signature across all runs,
      // repetitions and co-owners of the cache is solved exactly once.
      it->second = by_sim ? sim_solve_k(delta_lw, delta_hw)
                          : cache_->solve(cache_key(delta_lw, delta_hw)).k;
    }
    pair_k = it->second;
    obs::Counter* route =
        by_sim ? counters.solve_sim : counters.solve_analytical;
    if (route != nullptr) route->add(1);
  };

  auto take = [&](std::size_t pos) {
    const std::size_t job = arrivals[pos];
    taken[pos] = 1;
    active.push_back(job);
    if (!stats.jobs[job].started()) stats.jobs[job].start_time = now;
    advance_head();
    if (!contrast_fill) return;
    // `pos` is its class's head (the queue head or a fill's pick); the class
    // stops being due when its next position lies past due_end.
    const JobIndex::Pos c = index.class_of[pos];
    class_head[c] = index.next_of[pos];
    if (pos < due_end && class_head[c] >= due_end) {
      due_slot[due.back()] = due_slot[c];
      due[due_slot[c]] = due.back();
      due.pop_back();
    }
  };

  // The eligible arrival position that should fill the second machine slot,
  // given the occupant: FCFS takes the oldest, contrast the one maximizing
  // the checkpoint-cost ratio against the occupant (ties in queue order).
  auto pick_second = [&]() -> std::optional<std::size_t> {
    advance_head();
    if (head >= n || jobs[arrivals[head]].submit_time > now) return std::nullopt;
    if (!contrast_fill) return head;
    // The eligible positions are the untaken ones before the first position
    // submitted after `now` (positions before `head` are all taken, so no
    // class head lies there). A class whose head is passed becomes due.
    for (due_end = std::max(due_end, head);
         due_end < n && jobs[arrivals[due_end]].submit_time <= now; ++due_end) {
      const JobIndex::Pos c = index.class_of[due_end];
      if (class_head[c] == due_end) {
        due_slot[c] = static_cast<JobIndex::Pos>(due.size());
        due.push_back(c);
      }
    }
    // A class's later positions have its head's contrast and sit later in
    // the queue, so they lose every tie: the heads decide. `due` is not in
    // queue order, so an equal contrast wins from an earlier position —
    // the same pick as a strict `>` walked in queue order.
    const double occupant = jobs[active[0]].checkpoint_cost;
    std::size_t best = head;
    double best_contrast = -1.0;
    for (const JobIndex::Pos c : due) {
      const std::size_t p = class_head[c];
      const double contrast =
          std::abs(std::log(jobs[arrivals[p]].checkpoint_cost / occupant));
      if (contrast > best_contrast || (contrast == best_contrast && p < best)) {
        best_contrast = contrast;
        best = p;
      }
    }
    return best;
  };

  // Fills free machine slots from the eligible pending jobs; returns true
  // when the active set changed (which resets the within-gap switch state).
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

  // Which active job runs right now, given the within-gap state.
  auto pick_current = [&]() -> std::size_t {
    if (active.size() == 1) return active[0];
    if (policy == Policy::kShirazPairing && pair_k) {
      if (*pair_k > 0 && gap_ckpts < static_cast<std::size_t>(*pair_k)) {
        return light_of_pair();
      }
      return heavy_of_pair();
    }
    // Baseline (and non-beneficial pairs): alternate at every failure.
    return active[gap_index % active.size()];
  };

  auto handle_failure = [&](std::optional<std::size_t> hit) {
    stats.failures += 1.0;
    ++gap_index;
    gap_ckpts = 0;
    next_fail = now + failure_dist_->sample(rng);
    if (hit) {
      stats.jobs[*hit].failures_hit += 1.0;
      // Restart downtime before the post-failure segment, charged as lost
      // time to the job that must roll back. An idle machine (hit == nullopt)
      // restarts nothing.
      if (config_.restart_cost > 0.0) {
        const Seconds until =
            std::min(now + config_.restart_cost, config_.horizon);
        stats.jobs[*hit].lost += until - now;
        now = until;
      }
    }
  };

  activate();
  while (now < config_.horizon) {
    if (active.empty()) {
      advance_head();
      if (head == n) break;  // queue drained: no work will ever arrive again
      const Seconds until = std::min({next_arrival(), next_fail, config_.horizon});
      stats.idle += until - now;
      now = until;
      if (now >= config_.horizon) break;
      if (now >= next_fail) handle_failure(std::nullopt);
      activate();
      continue;
    }

    const std::size_t job = pick_current();
    BatchJobRecord& rec = stats.jobs[job];

    // A failure due now (at a segment boundary, or during restart downtime)
    // hits whoever would run next, destroying nothing in flight.
    if (next_fail <= now) {
      handle_failure(job);
      activate();
      continue;
    }

    // Shiraz+ stretches the *heavy* member of an active pair; everyone else
    // runs at their OCI.
    Seconds job_interval = interval[job];
    if (policy == Policy::kShirazPairing && config_.hw_stretch > 1 &&
        active.size() == 2 && pair_k && job == heavy_of_pair()) {
      job_interval *= static_cast<double>(config_.hw_stretch);
    }

    // The stretch: `job` runs segment after segment — compute (capped by the
    // remaining work) then checkpoint (skipped on the completing segment; a
    // finishing job just ends) — until something other than a plain
    // checkpointed segment happens. After a plain segment the scheduler
    // round above changes nothing (activate() fills a slot only when one is
    // free and the head arrival is due; the current job changes only at the
    // light member's k-th checkpoint; a failure must be due), so the stretch
    // ends exactly where that round would act, and performs the same
    // additions in the same order on locals written back once.
    const Seconds ckpt_cost = jobs[job].checkpoint_cost;
    const bool light_in_pair = active.size() == 2 && job == light_of_pair();
    // gap_ckpts at which the light member yields the machine to the heavy one.
    const std::size_t yield_at =
        light_in_pair && policy == Policy::kShirazPairing && pair_k
            ? static_cast<std::size_t>(*pair_k)
            : std::numeric_limits<std::size_t>::max();
    const Seconds arrival_due = active.size() == 1 ? next_arrival() : kInf;
    enum class End { kHorizon, kFailure, kCompleted, kCheckpointed };
    End end;
    Seconds t = now;
    Seconds useful = rec.useful;
    Seconds io = rec.io;
    double checkpoints = rec.checkpoints;
    Seconds left = remaining[job];
    for (;;) {
      const bool completing = left <= job_interval;
      const Seconds run_time = completing ? left : job_interval;
      const Seconds delta = completing ? 0.0 : ckpt_cost;
      const Seconds seg_end = t + run_time + delta;
      if (config_.horizon <= std::min(seg_end, next_fail)) {
        end = End::kHorizon;
        break;
      }
      if (next_fail < seg_end) {
        end = End::kFailure;
        break;
      }
      t = seg_end;
      useful += run_time;
      left -= run_time;
      if (completing) {
        end = End::kCompleted;
        break;
      }
      io += delta;
      checkpoints += 1.0;
      if (light_in_pair) ++gap_ckpts;
      // A failure due at this boundary, the light member's k-th checkpoint,
      // or a due arrival for the free slot: the scheduler round acts.
      if (next_fail <= t || gap_ckpts == yield_at || arrival_due <= t) {
        end = End::kCheckpointed;
        break;
      }
    }
    now = t;
    rec.useful = useful;
    rec.io = io;
    rec.checkpoints = checkpoints;
    remaining[job] = left;

    switch (end) {
      case End::kHorizon:  // work in flight at the horizon; the loop ends
        rec.lost += config_.horizon - now;
        now = config_.horizon;
        break;
      case End::kFailure:
        rec.lost += next_fail - now;
        now = next_fail;
        handle_failure(job);
        activate();
        break;
      case End::kCompleted:
        rec.completion_time = now;
        stats.makespan = std::max(stats.makespan, now);
        active.erase(std::find(active.begin(), active.end(), job));
        gap_ckpts = 0;
        // A refill re-solves inside activate(); otherwise the pair shrank.
        if (!activate()) resolve_pair();
        break;
      case End::kCheckpointed:
        activate();  // a new arrival may fill an empty second slot
        break;
    }
  }

  stats.elapsed = std::min(now, config_.horizon);
  // Jobs cut off by the horizon stretch the makespan to the horizon.
  std::uint64_t completed = 0;
  for (BatchJobRecord& rec : stats.jobs) {
    if (rec.started()) rec.started_reps = 1;
    if (rec.completed()) {
      rec.completed_reps = 1;
      ++completed;
    } else {
      stats.makespan = config_.horizon;
    }
  }
  if (counters.completed != nullptr) counters.completed->add(completed);
  return stats;
}

CampaignStats WorkloadManager::run_many(const std::vector<BatchJobSpec>& jobs,
                                        Policy policy, std::size_t reps,
                                        std::uint64_t seed,
                                        const CampaignRunOptions& options) const {
  const JobIndex index(jobs, config_);
  MeanFold mean;
  fold_reps(
      reps, seed, options,
      [&](Rng& rng) { return run(jobs, index, policy, rng); },
      [&](CampaignStats rep) { mean.add(rep); });
  return std::move(mean).finish();
}

CampaignDistribution WorkloadManager::run_distribution(
    const std::vector<BatchJobSpec>& jobs, Policy policy, std::size_t reps,
    std::uint64_t seed, const CampaignRunOptions& options) const {
  const JobIndex index(jobs, config_);
  DistributionFold dist(jobs, reps);
  fold_reps(
      reps, seed, options,
      [&](Rng& rng) { return run(jobs, index, policy, rng); },
      [&](CampaignStats rep) { dist.add(rep); });
  return std::move(dist).finish();
}

}  // namespace shiraz::sched
