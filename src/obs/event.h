// Structured event tracing for the discrete-event simulator.
//
// The engine optionally narrates every run as a typed obs::Event stream —
// failures, checkpoint begin/commit/wipe, proactive writes, app switches,
// restart/switch downtime, alarm delivery/expiry, and horizon truncation —
// through an EventSink armed via sim::EngineConfig::sink (single runs) or
// sim::CampaignOptions::sink (campaigns). Sinks are pure observers: they
// never touch the RNG, so an armed sink is bit-identical to an untraced run
// (regression-tested in tests/obs/event_trace_test.cpp). On the event loop
// a null sink costs one pointer compare per would-be event; the flat replay
// kernel (sim/kernel.h) picks its narrating or silent instantiation once per
// repetition, so an unarmed kernel run pays nothing per event and an armed
// one pays only the sink's own on_event. Parallel campaigns buffer events
// per repetition and merge them in repetition order, so the stream is
// identical for every `--jobs` value.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace shiraz::obs {

/// `Event::app` when no application is involved (failure while idle, alarm
/// expiring with nothing running).
inline constexpr std::int32_t kNoApp = -1;

enum class EventKind : std::uint8_t {
  /// A failure struck at `time`; `app` is the application it hit (kNoApp if
  /// the machine was idle).
  kFailure,
  /// Post-failure restart downtime charged to `app`: span [time, time+duration].
  kRestart,
  /// App `app` started writing a scheduled checkpoint at `time`.
  kCheckpointBegin,
  /// App `app` committed a scheduled checkpoint at `time`; the write span is
  /// [time-duration, time] and `value` is the compute it sealed (seconds).
  kCheckpointCommit,
  /// A failure wiped app `app`'s in-flight segment: span [time, time+duration]
  /// of compute (plus any partial write) was lost.
  kSegmentWiped,
  /// App `app` committed an alarm-triggered proactive checkpoint at `time`;
  /// write span [time-duration, time], `value` = compute sealed (seconds).
  kProactiveCheckpoint,
  /// Within-gap hand-off to `app` at `time`; `duration` is the switch
  /// downtime charged to the incoming app (0 under the paper's free-switch
  /// assumption) and `value` holds the outgoing app index.
  kAppSwitch,
  /// A failure alarm was delivered to the policy while `app` ran; `value` is
  /// the claimed time-to-failure (lead, seconds).
  kAlarmDelivered,
  /// An alarm fired while nothing ran and was dropped; `value` is its lead.
  kAlarmExpired,
  /// The horizon cut app `app`'s in-flight segment: span [time, time+duration]
  /// ended neither checkpointed nor failure-wiped.
  kHorizonTruncated,
};

/// Human-readable kind name (e.g. "failure", "checkpoint-commit").
const char* kind_name(EventKind kind);

/// One simulator event. Spans start at `time` or end there — see the per-kind
/// comments; instants have duration 0. `value` is kind-specific payload.
struct Event {
  EventKind kind{};
  Seconds time = 0.0;
  Seconds duration = 0.0;
  std::int32_t app = kNoApp;
  /// Campaign repetition that produced the event (0 for single runs); stamped
  /// by the campaign merge, so streams are comparable across worker counts.
  std::uint32_t rep = 0;
  Seconds value = 0.0;

  friend bool operator==(const Event&, const Event&) = default;
};

/// Receives the event stream. Implementations must not access any RNG (the
/// engine's determinism guarantee depends on it) and are called from the
/// thread that runs the repetition only when armed per-run; campaign merges
/// call from the campaign thread in repetition order.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const Event& event) = 0;
};

/// In-memory sink: records the stream for later rendering or auditing.
class EventRecorder final : public EventSink {
 public:
  void on_event(const Event& event) override { events_.push_back(event); }

  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

}  // namespace shiraz::obs
