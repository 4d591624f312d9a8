#include "sim/engine.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "sim/kernel.h"
#include "sim/trace.h"

namespace shiraz::sim {

namespace {
void validate_config(const EngineConfig& config) {
  SHIRAZ_REQUIRE(config.t_total > 0.0, "horizon must be positive");
  SHIRAZ_REQUIRE(config.restart_cost >= 0.0, "restart cost must be non-negative");
  SHIRAZ_REQUIRE(config.switch_cost >= 0.0, "switch cost must be non-negative");
}

/// Sub-stream id for the prediction RNG: Rng::fork derives from the seed (not
/// the generator state), so alarm draws never perturb the failure sequence.
constexpr std::uint64_t kAlarmStream = 0x70726564696374ULL;  // "predict"

/// Resolved handles for the engine's registry counters. Metrics are pure
/// observers of finished results: every increment derives from a SimResult
/// the run already produced, never the other way around, and campaigns apply
/// them in repetition order — the event-stream merge contract.
struct SimCounters {
  obs::Counter* reps;
  obs::Counter* kernel;
  obs::Counter* event_loop;
  obs::Counter* gaps;

  explicit SimCounters(obs::MetricsRegistry& registry)
      : reps(&registry.counter("shiraz_sim_reps_total",
                               "simulator repetitions evaluated")),
        kernel(&registry.counter("shiraz_sim_kernel_replays_total",
                                 "repetitions dispatched to the flat kernel")),
        event_loop(&registry.counter("shiraz_sim_event_loop_runs_total",
                                     "repetitions run through the event loop")),
        gaps(&registry.counter("shiraz_sim_gaps_total",
                               "inter-failure gaps consumed")) {}

  void note(const SimResult& res, bool used_kernel) {
    reps->add(1);
    (used_kernel ? kernel : event_loop)->add(1);
    // Every run consumes one gap per failure plus the final draw that
    // crosses the horizon.
    gaps->add(static_cast<std::uint64_t>(res.failures) + 1);
  }
};
}  // namespace

Engine::Engine(const reliability::Distribution& failure_dist, const EngineConfig& config)
    : dist_(failure_dist.clone()), config_(config) {
  validate_config(config);
  // shared_ptr keeps the lambda copyable, as std::function requires; the
  // engine keeps its own handle so trace stores can batch-sample directly.
  gap_sampler_ = [dist = dist_](Rng& rng, Seconds) { return dist->sample(rng); };
}

Engine::Engine(GapSampler sampler, const EngineConfig& config)
    : gap_sampler_(std::move(sampler)), config_(config) {
  validate_config(config);
  SHIRAZ_REQUIRE(gap_sampler_ != nullptr, "gap sampler must be callable");
}

SimResult Engine::run(const std::vector<SimJob>& jobs, const Scheduler& scheduler,
                      Rng& rng, const AlarmSource* alarms) const {
  const SimResult res = run_impl(jobs, scheduler, rng, nullptr, alarms, config_.sink);
  if (config_.metrics != nullptr) {
    SimCounters(*config_.metrics).note(res, /*used_kernel=*/false);
  }
  return res;
}

SimResult Engine::replay(const std::vector<SimJob>& jobs, const Scheduler& scheduler,
                         const FailureTrace& trace) const {
  // Without an alarm source no RNG stream is consumed at all.
  Rng unused(0);
  return replay(jobs, scheduler, trace, unused, nullptr);
}

SimResult Engine::replay(const std::vector<SimJob>& jobs, const Scheduler& scheduler,
                         const FailureTrace& trace, Rng& rng,
                         const AlarmSource* alarms) const {
  SHIRAZ_REQUIRE(trace.horizon() >= config_.t_total,
                 "trace horizon does not cover the engine horizon");
  bool used_kernel = false;
  const SimResult res =
      run_impl(jobs, scheduler, rng, &trace, alarms, config_.sink, &used_kernel);
  if (config_.metrics != nullptr) {
    SimCounters(*config_.metrics).note(res, used_kernel);
  }
  return res;
}

SimResult Engine::run_impl(const std::vector<SimJob>& jobs, const Scheduler& scheduler,
                           Rng& rng, const FailureTrace* trace,
                           const AlarmSource* alarms, obs::EventSink* sink,
                           bool* used_kernel) const {
  SHIRAZ_REQUIRE(!jobs.empty(), "need at least one job");
  for (const SimJob& job : jobs) {
    SHIRAZ_REQUIRE(job.delta > 0.0, "job checkpoint cost must be positive");
    SHIRAZ_REQUIRE(job.schedule != nullptr, "job needs an interval schedule");
  }
  if (used_kernel != nullptr) *used_kernel = false;

  // Closed-form-eligible replays take the flat kernel (sim/kernel.h): the
  // same result, bit for bit, from a batched pass over the trace's
  // structure-of-arrays buffers instead of the per-event walk below. An
  // armed sink rides along: the kernel narrates the same event stream this
  // loop would emit. Ineligible configurations — live runs, alarms, costs,
  // aperiodic schedules, policies without a phase plan
  // (Scheduler::flat_plan) — fall through to the event loop.
  if (trace != nullptr && config_.flat_kernel) {
    SimResult flat;
    if (try_flat_replay(config_, jobs, scheduler, alarms, sink, *trace, &flat) ==
        nullptr) {
      if (used_kernel != nullptr) *used_kernel = true;
      return flat;
    }
  }

  SimResult res;
  res.wall = config_.t_total;
  res.apps.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) res.apps[i].name = jobs[i].name;

  const Seconds horizon = config_.t_total;
  constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();

  // Event narration. Sinks are pure observers (no RNG, no simulator state),
  // so the traced and untraced runs are bit-identical; a null sink costs one
  // pointer compare per would-be event. Event::rep stays 0 here — campaign
  // merges stamp it.
  const auto emit = [&](obs::EventKind kind, Seconds time, Seconds duration,
                        std::int32_t app, Seconds value = 0.0) {
    if (sink == nullptr) return;
    obs::Event e;
    e.kind = kind;
    e.time = time;
    e.duration = duration;
    e.app = app;
    e.value = value;
    sink->on_event(e);
  };
  const auto app_id = [](std::size_t i) { return static_cast<std::int32_t>(i); };
  std::vector<std::size_t> ckpts_gap(jobs.size(), 0);
  Seconds now = 0.0;
  Seconds gap_start = 0.0;

  // Failure clock: live runs sample the next gap and add it to the clock;
  // replays read the trace's cached prefix sums (FailureTrace::fail_time),
  // which the trace built with the same sequential additions — at every
  // failure the clock sits exactly on the previous failure time, so
  // `at + gap` and the cached sum are the same double (bit-identity
  // regression-tested in trace_replay_test).
  std::size_t trace_cursor = 0;
  auto next_fail_time = [&](Seconds at) {
    return trace != nullptr ? trace->fail_time(trace_cursor++)
                            : at + gap_sampler_(rng, at);
  };
  Seconds next_fail = next_fail_time(0.0);

  // Prediction state: the alarms of the currently armed gap (sorted, filtered
  // to [gap_start, min(next_fail, horizon))), a cursor over them, and at most
  // one pending proactive checkpoint (a later alarm replaces it). With no
  // alarm source the whole machinery is skipped — including the fork, which
  // derives from the seed rather than generator state, so skipping it cannot
  // perturb the failure sequence (regression-tested in trace_replay_test).
  std::optional<Rng> alarm_rng;
  if (alarms != nullptr) alarm_rng.emplace(rng.fork(kAlarmStream));
  std::vector<Alarm> gap_alarms;
  std::size_t alarm_next = 0;
  std::optional<Seconds> pending_ckpt;
  auto arm_alarms = [&]() {
    if (alarms == nullptr) return;
    gap_alarms.clear();
    alarm_next = 0;
    pending_ckpt.reset();
    gap_alarms = alarms->alarms_in_gap(gap_start, next_fail - gap_start, *alarm_rng);
    const Seconds cutoff = std::min(next_fail, horizon);
    std::erase_if(gap_alarms, [&](const Alarm& a) {
      return a.time < gap_start || a.time >= cutoff;
    });
    std::sort(gap_alarms.begin(), gap_alarms.end(),
              [](const Alarm& a, const Alarm& b) { return a.time < b.time; });
  };

  Seconds last_gap_length = 0.0;
  auto make_ctx = [&](std::size_t current, Seconds at) {
    SchedContext ctx;
    ctx.now = at;
    ctx.gap_start = gap_start;
    ctx.num_apps = jobs.size();
    ctx.current = current;
    ctx.checkpoints_this_gap = &ckpts_gap;
    ctx.failures_so_far = res.failures;
    ctx.last_gap_length = last_gap_length;
    return ctx;
  };

  // Handles the failure at `now`; charges nothing (time already charged by
  // the caller), re-arms the failure clock and the gap's alarms, applies the
  // restart downtime, and asks the scheduler who runs next.
  if (alarms != nullptr) alarms->reset();
  scheduler.reset();
  arm_alarms();
  Decision decision = scheduler.on_gap_start(make_ctx(0, now));
  auto handle_failure = [&](std::optional<std::size_t> hit) {
    ++res.failures;
    if (hit) ++res.apps[*hit].failures_hit;
    emit(obs::EventKind::kFailure, now, 0.0, hit ? app_id(*hit) : obs::kNoApp);
    last_gap_length = now - gap_start;
    gap_start = now;
    next_fail = next_fail_time(now);
    std::fill(ckpts_gap.begin(), ckpts_gap.end(), 0);
    arm_alarms();
    decision = scheduler.on_gap_start(make_ctx(0, now));
    if (config_.restart_cost > 0.0 && decision.app) {
      // Non-preemptible restart window charged to the resuming app. A failure
      // striking inside it is handled by the main loop (the window is modeled
      // as part of the app's first interval start offset).
      const Seconds end = std::min({now + config_.restart_cost, next_fail, horizon});
      res.apps[*decision.app].restart += end - now;
      emit(obs::EventKind::kRestart, now, end - now, app_id(*decision.app));
      now = end;
    }
  };
  // Alarms that fire while nothing runs are dropped: there is no in-flight
  // compute to protect.
  auto drop_alarms_before = [&](Seconds t) {
    while (alarm_next < gap_alarms.size() && gap_alarms[alarm_next].time < t) {
      emit(obs::EventKind::kAlarmExpired, gap_alarms[alarm_next].time, 0.0,
           obs::kNoApp, gap_alarms[alarm_next].lead);
      ++alarm_next;
    }
  };

  while (now < horizon) {
    // Resolve idling (no app, or an app with a delayed start).
    if (!decision.app) {
      const Seconds until = std::min(next_fail, horizon);
      drop_alarms_before(until);
      res.idle += until - now;
      now = until;
      if (now >= horizon) break;
      handle_failure(std::nullopt);
      continue;
    }
    const std::size_t ai = *decision.app;
    SHIRAZ_REQUIRE(ai < jobs.size(), "scheduler chose an unknown app");
    const Seconds start_time = gap_start + decision.not_before_elapsed;
    if (start_time > now) {
      const Seconds until = std::min({start_time, next_fail, horizon});
      drop_alarms_before(until);
      res.idle += until - now;
      now = until;
      if (now >= horizon) break;
      if (next_fail <= start_time && now >= next_fail) {
        handle_failure(std::nullopt);  // failure struck while still idle
        continue;
      }
    }

    // Run one segment (compute interval + checkpoint write) of app `ai`,
    // interruptible by alarms and by a pending proactive checkpoint. With no
    // alarm source the interrupt times stay at infinity and the segment
    // resolves through exactly the prediction-free three-way comparison.
    const SimJob& job = jobs[ai];
    const Seconds tau = job.schedule->next_interval(now - gap_start);
    SHIRAZ_REQUIRE(tau > 0.0, "schedule produced a non-positive interval");
    const Seconds seg_start = now;
    const Seconds write_start = now + tau;
    const Seconds seg_end = write_start + job.delta;

    for (;;) {
      const Seconds resolve_at = std::min({seg_end, next_fail, horizon});
      // Alarms delivered late (their time fell inside a restart window) fire
      // as soon as the app is back on the machine.
      const Seconds alarm_at =
          alarm_next < gap_alarms.size()
              ? std::max(gap_alarms[alarm_next].time, seg_start)
              : kNever;
      const Seconds pending_at =
          pending_ckpt ? std::max(*pending_ckpt, seg_start) : kNever;

      if (alarm_at < resolve_at && alarm_at <= pending_at) {
        SchedContext ctx = make_ctx(ai, alarm_at);
        ctx.alarm_lead = gap_alarms[alarm_next].lead;
        ctx.current_delta = job.delta;
        const AlarmAction action = scheduler.on_alarm(ctx);
        emit(obs::EventKind::kAlarmDelivered, alarm_at, 0.0, app_id(ai),
             gap_alarms[alarm_next].lead);
        ++alarm_next;
        ++res.alarms;
        if (action.take_checkpoint) {
          pending_ckpt = alarm_at + std::max(0.0, action.checkpoint_delay);
        }
        continue;
      }
      if (pending_at < resolve_at) {
        if (pending_at >= write_start) {
          // The scheduled write is already sealing this segment; the
          // proactive checkpoint would be redundant.
          pending_ckpt.reset();
          continue;
        }
        // Proactive write [pending_at, pending_at + delta) sealing the
        // compute done since the segment started.
        const Seconds proactive_end = pending_at + job.delta;
        pending_ckpt.reset();
        if (horizon <= std::min(proactive_end, next_fail)) {
          res.truncated += horizon - now;
          emit(obs::EventKind::kHorizonTruncated, now, horizon - now, app_id(ai));
          now = horizon;
          break;
        }
        if (next_fail < proactive_end) {
          // Failure wipes the in-flight segment (compute + partial write).
          res.apps[ai].lost += next_fail - now;
          emit(obs::EventKind::kSegmentWiped, now, next_fail - now, app_id(ai));
          now = next_fail;
          handle_failure(ai);
          break;
        }
        res.apps[ai].useful += pending_at - seg_start;
        res.apps[ai].io += job.delta;
        ++res.apps[ai].proactive_checkpoints;
        ++res.proactive_checkpoints;
        emit(obs::EventKind::kProactiveCheckpoint, proactive_end, job.delta,
             app_id(ai), pending_at - seg_start);
        now = proactive_end;
        // The decision is unchanged: the app resumes its regular schedule.
        break;
      }

      if (horizon <= std::min(seg_end, next_fail)) {
        // Horizon cuts the segment: neither checkpointed nor failure-wiped.
        res.truncated += horizon - now;
        if (horizon > write_start) {
          emit(obs::EventKind::kCheckpointBegin, write_start, 0.0, app_id(ai));
        }
        emit(obs::EventKind::kHorizonTruncated, now, horizon - now, app_id(ai));
        now = horizon;
        break;
      }
      if (next_fail < seg_end) {
        // Failure wipes the in-flight segment (compute + partial checkpoint).
        res.apps[ai].lost += next_fail - now;
        if (next_fail > write_start) {
          emit(obs::EventKind::kCheckpointBegin, write_start, 0.0, app_id(ai));
        }
        emit(obs::EventKind::kSegmentWiped, now, next_fail - now, app_id(ai));
        now = next_fail;
        handle_failure(ai);
        break;
      }
      // Segment completes: the interval becomes useful work, sealed by delta
      // of checkpoint I/O.
      res.apps[ai].useful += tau;
      res.apps[ai].io += job.delta;
      ++res.apps[ai].checkpoints;
      ++ckpts_gap[ai];
      emit(obs::EventKind::kCheckpointBegin, write_start, 0.0, app_id(ai));
      emit(obs::EventKind::kCheckpointCommit, seg_end, job.delta, app_id(ai), tau);
      now = seg_end;
      decision = scheduler.on_checkpoint(make_ctx(ai, now));
      // A within-gap hand-off (Shiraz's switch) may cost drain/launch
      // downtime, charged to the incoming application.
      if (decision.app && *decision.app != ai) {
        ++res.switches;
        Seconds switch_end = now;
        if (config_.switch_cost > 0.0) {
          switch_end = std::min({now + config_.switch_cost, next_fail, horizon});
          res.apps[*decision.app].restart += switch_end - now;
        }
        emit(obs::EventKind::kAppSwitch, now, switch_end - now,
             app_id(*decision.app), static_cast<double>(ai));
        now = switch_end;
      }
      break;
    }
  }
  return res;
}

SimResult Engine::run_many(const std::vector<SimJob>& jobs, const Scheduler& scheduler,
                           std::size_t reps, std::uint64_t seed,
                           std::size_t workers, const AlarmSource* alarms) const {
  CampaignOptions opts;
  opts.workers = workers;
  opts.alarms = alarms;
  return run_campaign(jobs, scheduler, reps, seed, opts).mean;
}

SimResult Engine::run_many(const std::vector<SimJob>& jobs, const Scheduler& scheduler,
                           std::size_t reps, std::uint64_t seed,
                           const CampaignOptions& opts) const {
  return run_campaign(jobs, scheduler, reps, seed, opts).mean;
}

CampaignSummary Engine::run_campaign(const std::vector<SimJob>& jobs,
                                     const Scheduler& scheduler, std::size_t reps,
                                     std::uint64_t seed, std::size_t workers,
                                     const AlarmSource* alarms) const {
  CampaignOptions opts;
  opts.workers = workers;
  opts.alarms = alarms;
  return run_campaign(jobs, scheduler, reps, seed, opts);
}

CampaignSummary Engine::run_campaign(const std::vector<SimJob>& jobs,
                                     const Scheduler& scheduler, std::size_t reps,
                                     std::uint64_t seed,
                                     const CampaignOptions& opts) const {
  SHIRAZ_REQUIRE(reps >= 1, "need at least one repetition");
  const TraceStore* traces = opts.traces;
  if (traces != nullptr) {
    SHIRAZ_REQUIRE(traces->seed() == seed,
                   "trace store was built for a different seed");
    SHIRAZ_REQUIRE(traces->horizon() >= config_.t_total,
                   "trace store horizon does not cover the engine horizon");
    // Materialize up front so parallel repetitions only read the cache.
    traces->ensure(reps);
  }
  const AlarmSource* alarms = opts.alarms;
  obs::EventSink* sink = opts.sink != nullptr ? opts.sink : config_.sink;
  obs::MetricsRegistry* metrics =
      opts.metrics != nullptr ? opts.metrics : config_.metrics;
  const Rng master(seed);
  std::vector<SimResult> results(reps);
  // Traced campaigns buffer per repetition: repetitions may run on any worker
  // in any order, so each records privately and the buffers merge — stamped
  // with their repetition id — after the runs. The serial path goes through
  // the same buffers, so the delivered stream is identical for every worker
  // count.
  std::vector<obs::EventRecorder> recorders(sink != nullptr ? reps : 0);
  // Metrics follow the same shape: each repetition notes its dispatch route
  // privately and the increments apply in repetition order after the runs,
  // so the registry's mutation order is worker-count-invariant too.
  std::vector<std::uint8_t> kernel_reps(metrics != nullptr ? reps : 0, 0);

  auto run_rep = [&](std::size_t r, const Scheduler& policy,
                     const AlarmSource* source) {
    Rng rng = master.fork(r);
    const FailureTrace* trace = traces != nullptr ? &traces->trace(r) : nullptr;
    bool used_kernel = false;
    results[r] = run_impl(jobs, policy, rng, trace, source,
                          sink != nullptr ? &recorders[r] : nullptr,
                          &used_kernel);
    if (metrics != nullptr) kernel_reps[r] = used_kernel ? 1 : 0;
  };
  auto merge_events = [&] {
    if (sink == nullptr) return;
    for (std::size_t r = 0; r < reps; ++r) {
      for (obs::Event e : recorders[r].events()) {
        e.rep = static_cast<std::uint32_t>(r);
        sink->on_event(e);
      }
    }
  };
  auto merge_metrics = [&] {
    if (metrics == nullptr) return;
    SimCounters counters(*metrics);
    for (std::size_t r = 0; r < reps; ++r) {
      counters.note(results[r], kernel_reps[r] != 0);
    }
  };

  if ((opts.workers <= 1 && opts.pool == nullptr) || reps == 1) {
    for (std::size_t r = 0; r < reps; ++r) run_rep(r, scheduler, alarms);
    merge_events();
    merge_metrics();
    return summarize_campaign(results);
  }

  // Stateful policies and alarm sources get a private clone per repetition
  // (cloned up front, on this thread, so no worker ever copies an instance
  // another worker is mutating). The caller's instances run the last
  // repetition: reset() wipes run state at every run start, so the serial
  // path's post-campaign observable state is also exactly the last
  // repetition's — diagnostics like the adaptive scheduler's final k and a
  // predictor's stats stay worker-count-invariant.
  std::vector<std::unique_ptr<Scheduler>> clones(reps);
  if (std::unique_ptr<Scheduler> probe = scheduler.clone()) {
    clones[0] = std::move(probe);
    for (std::size_t r = 1; r + 1 < reps; ++r) clones[r] = scheduler.clone();
  }
  std::vector<std::unique_ptr<AlarmSource>> alarm_clones(reps);
  if (alarms != nullptr) {
    if (std::unique_ptr<AlarmSource> probe = alarms->clone()) {
      alarm_clones[0] = std::move(probe);
      for (std::size_t r = 1; r + 1 < reps; ++r) alarm_clones[r] = alarms->clone();
    }
  }

  common::PoolHandle pool(opts.pool, std::min(opts.workers, reps));
  common::parallel_for_indexed(pool.get(), reps, [&](std::size_t r) {
    const Scheduler& policy = clones[r] ? *clones[r] : scheduler;
    const AlarmSource* source = alarm_clones[r] ? alarm_clones[r].get() : alarms;
    run_rep(r, policy, source);
  });
  merge_events();
  merge_metrics();
  return summarize_campaign(results);
}

}  // namespace shiraz::sim
