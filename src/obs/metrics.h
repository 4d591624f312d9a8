// Fleet-wide metrics registry: typed counters, gauges, and fixed-bin
// histograms with the same purity contract as obs::EventSink.
//
// Arming a MetricsRegistry is a pure observation: no instrumented component
// ever touches an RNG or changes a control-flow decision because metrics are
// on, so every bench and test output stays bit-identical with the registry
// armed — for every --jobs value (regression-tested in
// tests/obs/metrics_campaign_test.cpp and gated by the kernel-armed mode of
// bench/micro_engine_throughput --check).
//
// Concurrency model. Counters and histograms are sharded: writers hit a
// per-thread cache-line-padded atomic shard with a relaxed add, and readers
// sum the shards. Unsigned sums are commutative, so a counter's value is
// exact and independent of thread interleaving; the sim engine additionally
// buffers its per-repetition increments and applies them in repetition order
// on the campaign thread (mirroring the event-stream merge), so even the
// order of registry mutations is worker-count-invariant there. Histogram
// *bucket counts* carry the same exactness guarantee; the floating-point
// `sum` is exact in the values it accumulates but its rounding may depend on
// which shard each racing writer landed on — deterministic consumers compare
// counts, not sums.
//
// Exposition. snapshot() returns a name-sorted value copy; metrics_json
// renders the shiraz-metrics-v1 document (DESIGN.md §11) and
// prometheus_render the Prometheus text format, both deterministic functions
// of the snapshot. Metric names are validated against the Prometheus grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*) at registration, so every registered metric is
// exposable.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace shiraz {
class JsonWriter;
}  // namespace shiraz

namespace shiraz::obs {

/// Schema identity of the JSON exposition, embedded in every snapshot
/// document (the serve `metrics` op, the extended `stats` op).
inline constexpr const char* kMetricsSchema = "shiraz-metrics-v1";

/// Writer shards per metric. Small on purpose: contention only matters for
/// the handful of hot counters, and value() walks every shard.
inline constexpr std::size_t kMetricShards = 8;

/// Index of the calling thread's shard (stable per thread, round-robin
/// assigned on first use).
std::size_t metric_shard_index() noexcept;

/// Monotonically increasing event count. Thread-safe; add() is a relaxed
/// atomic increment on the caller's shard, value() the exact sum.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[metric_shard_index()].count.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.count.load(std::memory_order_relaxed);
    return total;
  }
  /// Zeroes every shard (cache clear(), test isolation). Not atomic with
  /// respect to racing add()s — quiesce writers first.
  void reset() noexcept {
    for (Shard& s : shards_) s.count.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Last-write-wins instantaneous value (entries resident, bytes cached,
/// connections open). set() stores; add() is a CAS loop so concurrent deltas
/// never lose updates.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double dv) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + dv,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bin distribution with Prometheus `le` semantics: bucket i counts
/// observations v <= edges[i] that exceeded every earlier edge; the final
/// implicit bucket (+Inf) catches v > edges.back(). Bucket counts are exact
/// under any interleaving (sharded u64, see file comment); `sum` is the
/// floating-point total of everything observed.
class Histogram {
 public:
  /// `upper_edges` must be non-empty, finite, and strictly increasing.
  explicit Histogram(std::vector<double> upper_edges);

  void observe(double v) noexcept;

  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  const std::vector<double>& edges() const noexcept { return edges_; }
  /// Per-bucket (non-cumulative) counts; size edges().size() + 1, the last
  /// entry being the +Inf overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<double> sum{0.0};
  };

  std::vector<double> edges_;
  std::array<Shard, kMetricShards> shards_;
};

/// One metric's state, copied out of the registry. `count`/`value` double as
/// (counter value, unused), (unused, gauge value), and (total count, sum) for
/// histograms, which additionally carry their edges and per-bucket counts.
struct MetricsSnapshot {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    std::uint64_t count = 0;
    double value = 0.0;
    std::vector<double> edges;
    std::vector<std::uint64_t> buckets;
  };

  std::vector<Entry> entries;  ///< sorted by name
};

/// Get-or-create registry of named metrics. Returned references stay valid
/// for the registry's lifetime (map nodes are stable). Re-registering a name
/// with a different type — or a histogram with different edges — throws
/// InvalidArgument; names must match the Prometheus grammar.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "");
  Histogram& histogram(std::string_view name, std::vector<double> upper_edges,
                       std::string_view help = "");

  /// Name-sorted value copy of every registered metric — the input to both
  /// renderers. Deterministic given quiesced writers.
  MetricsSnapshot snapshot() const;

  /// Zeroes every metric (keeps registrations). Quiesce writers first.
  void reset();

  std::size_t size() const;

 private:
  struct Slot {
    std::string help;
    MetricsSnapshot::Kind kind = MetricsSnapshot::Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Slot& slot(std::string_view name, std::string_view help,
             MetricsSnapshot::Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Slot, std::less<>> slots_;
};

/// True iff `name` matches the Prometheus metric-name grammar.
bool valid_metric_name(std::string_view name) noexcept;

/// Writes the shiraz-metrics-v1 object — {"schema":...,"metrics":[...]} — as
/// the writer's next value (top level, or after key()). This is how the
/// serve layer embeds a snapshot inside a response line.
void metrics_json(JsonWriter& w, const MetricsSnapshot& snap);

/// The standalone compact shiraz-metrics-v1 document.
std::string metrics_json(const MetricsSnapshot& snap);

/// Prometheus text exposition format: # HELP / # TYPE preambles, counters
/// with the _total convention left to the caller's naming, histograms as
/// cumulative _bucket{le="..."} series plus _sum and _count.
std::string prometheus_render(const MetricsSnapshot& snap);

}  // namespace shiraz::obs
