#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <utility>

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {

double clock_s(clockid_t clock) {
  timespec t{};
  ::clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::int64_t SpanLog::open(const char* name, std::uint64_t request,
                           std::int64_t parent) {
  if (!enabled_) return -1;
  const double t = now_s();
  return add(Span{name, t, t, parent, request});
}

void SpanLog::close(std::int64_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
}

std::int64_t SpanLog::add(const Span& span) {
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::append(const SpanLog& other) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  // Children's intervals, clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    LayerTime& lt = out[s.name];
    const double duration = s.end - s.start;
    lt.calls += 1;
    lt.total_s += duration;
    lt.self_s += duration - covered;
  }
  return out;
}

double total_us(const std::map<std::string, LayerTime>& layers,
                const std::string& name) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0 : it->second.total_s * 1e6;
}

double self_us(const std::map<std::string, LayerTime>& layers,
               const std::string& name) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0 : it->second.self_s * 1e6;
}

void print_layers(const std::map<std::string, LayerTime>& layers) {
  for (const auto& [name, lt] : layers) {
    std::printf("layer %-22s calls %9llu  total %14.1f us  self %14.1f us\n",
                name.c_str(), static_cast<unsigned long long>(lt.calls),
                lt.total_s * 1e6, lt.self_s * 1e6);
  }
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  // Streamed one row per line: a traced serve run holds ~10^5-10^6 spans,
  // too many to render into one string first.
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"fields\":[\"name\",\"start_s\",\"end_s\",\"parent\","
             "\"request\"],\"spans\":[\n",
             f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "[\"%s\",%.7f,%.7f,%lld,%llu]%s\n", s.name, s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
