// In-memory spans recorded by the benchmark around calls into the program's
// public API (no instrumentation lives inside src/).
//
// A span is (name, start, end, parent, request): the parent is the index of
// the enclosing span in the same log (-1 for a root) and the request id is
// shared by every span of one request. Each worker thread owns one SpanLog —
// no locking on the hot path — and the logs are merged and written once when
// the run ends. A disabled log records nothing, so untraced runs pay one
// branch per would-be span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// CPU seconds consumed so far by the whole process (every thread) and by
/// the calling thread. Time the host lends to other tenants, or this
/// process's threads spend waiting to run, is not counted: on a shared
/// machine these clocks hold steady where wall time does not.
double process_cpu_s();
double thread_cpu_s();

struct Span {
  const char* name = "";   ///< static string: the layer this span times
  double start = 0.0;      ///< now_s() at entry
  double end = 0.0;        ///< now_s() at exit
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span starting now; returns its index, or -1 when disabled.
  std::int64_t open(const char* name, std::uint64_t request,
                    std::int64_t parent = -1);
  /// Closes span `id` now (no-op for -1).
  void close(std::int64_t id);
  /// Appends a finished span (parent index relative to this log).
  std::int64_t add(const Span& span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Moves `other`'s spans to the end of this log, re-basing parents.
  void append(const SpanLog& other);

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t request,
             std::int64_t parent = -1)
      : log_(log), id_(log.open(name, request, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::int64_t id_;
};

/// Busy time of one layer, summed over its spans.
struct LayerTime {
  std::uint64_t calls = 0;
  double total_s = 0.0;  ///< sum of span durations
  double self_s = 0.0;   ///< minus the part each span's children cover
};

/// Per span name: calls, total and self time. A span's self time is its
/// duration minus the union of its children's intervals clipped to it, so
/// overlapping (parallel) children are not double-subtracted.
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

/// Summed total / self time of layer `name`, in microseconds (0 if absent).
double total_us(const std::map<std::string, LayerTime>& layers,
                const std::string& name);
double self_us(const std::map<std::string, LayerTime>& layers,
               const std::string& name);

/// Prints one line per layer: calls, total and self time.
void print_layers(const std::map<std::string, LayerTime>& layers);

/// Writes the spans as one JSON document, one [name, start_s, end_s,
/// parent, request] row per span; returns false when the file cannot be
/// written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
