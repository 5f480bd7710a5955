#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "base/thread_pool.h"
#include "io/atomic_file.h"
#include "io/json.h"

namespace tsg::obs {

AtomicDouble::AtomicDouble(double init) : bits_(std::bit_cast<uint64_t>(init)) {}

double AtomicDouble::value() const {
  return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

void AtomicDouble::Store(double v) {
  bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
}

template <typename Fold>
void AtomicDouble::Update(double v, Fold fold) {
  uint64_t observed = bits_.load(std::memory_order_relaxed);
  for (;;) {
    const double current = std::bit_cast<double>(observed);
    const double next = fold(current, v);
    if (next == current) return;  // Min/Max fast path: nothing to change.
    if (bits_.compare_exchange_weak(observed, std::bit_cast<uint64_t>(next),
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

void AtomicDouble::Add(double delta) {
  if (delta == 0.0) return;
  Update(delta, [](double cur, double d) { return cur + d; });
}

void AtomicDouble::Min(double v) {
  Update(v, [](double cur, double x) { return x < cur ? x : cur; });
}

void AtomicDouble::Max(double v) {
  Update(v, [](double cur, double x) { return x > cur ? x : cur; });
}

int Histogram::BucketIndex(double v) {
  if (v == 0.0) return 0;
  const int exponent = std::clamp(std::ilogb(std::fabs(v)), -32, 30);
  return exponent + 33;  // [1, 63]; 0 is reserved for exact zeros.
}

void Histogram::Record(double v) {
  if (!std::isfinite(v)) {
    nonfinite_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  if (v < 0.0) negatives_.fetch_add(1, std::memory_order_relaxed);
  buckets_[static_cast<size_t>(BucketIndex(v))].fetch_add(
      1, std::memory_order_relaxed);
  sum_.Add(v);
  min_.Min(v);
  max_.Max(v);
}

int64_t Histogram::bucket(int i) const {
  return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
}

MetricRegistry::MetricRegistry() : trace_root_("") {}

MetricRegistry::~MetricRegistry() = default;

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

template <typename T>
T& MetricRegistry::GetNamed(std::map<std::string, std::unique_ptr<T>>* family,
                            const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = family->find(name);
  if (it == family->end()) {
    it = family->emplace(name, std::make_unique<T>()).first;
  }
  return *it->second;
}

Counter& MetricRegistry::GetCounter(const std::string& name) {
  return GetNamed(&counters_, name);
}

Gauge& MetricRegistry::GetGauge(const std::string& name) {
  return GetNamed(&gauges_, name);
}

Histogram& MetricRegistry::GetHistogram(const std::string& name) {
  return GetNamed(&histograms_, name);
}

Histogram& MetricRegistry::GetTimer(const std::string& name) {
  return GetNamed(&timers_, name);
}

void MetricRegistry::RecordTimer(const std::string& name, double seconds) {
  GetTimer(name).Record(seconds);
}

namespace {

/// Order-independent histogram fields only — the deterministic half.
void WriteHistogramShape(io::JsonWriter& json, const Histogram& h) {
  json.BeginObject();
  json.Key("count").Int(h.count());
  json.Key("negative").Int(h.negative_count());
  json.Key("nonfinite").Int(h.nonfinite_count());
  // +-inf sentinels (empty histogram) become null via the writer's non-finite
  // rule, which is itself deterministic.
  json.Key("min").Number(h.min());
  json.Key("max").Number(h.max());
  json.Key("buckets").BeginArray();
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    const int64_t n = h.bucket(i);
    if (n == 0) continue;
    json.BeginArray().Int(i).Int(n).EndArray();
  }
  json.EndArray();
  json.EndObject();
}

void WriteTraceNode(io::JsonWriter& json, const TraceNode& node) {
  json.BeginObject();
  json.Key("count").Int(node.count());
  json.Key("seconds").Number(node.total_seconds());
  json.Key("children").BeginObject();
  for (const TraceNode* child : node.children()) {
    json.Key(child->name());
    WriteTraceNode(json, *child);
  }
  json.EndObject();
  json.EndObject();
}

}  // namespace

std::string MetricRegistry::SnapshotJson(bool include_timings) const {
  // Hold the registry lock across the walk: the maps cannot grow mid-snapshot,
  // so every named metric appears exactly once. Individual values keep ticking
  // (relaxed atomics), which is fine — a snapshot is a point-in-time read of
  // each metric, not a cross-metric transaction.
  std::lock_guard<std::mutex> lock(mu_);
  io::JsonWriter json;
  json.BeginObject();

  json.Key("counts").BeginObject();
  json.Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    json.Key(name).Int(counter->value());
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    json.Key(name);
    WriteHistogramShape(json, *histogram);
  }
  json.EndObject();
  json.EndObject();  // counts

  if (include_timings) {
    json.Key("timings").BeginObject();
    json.Key("gauges").BeginObject();
    for (const auto& [name, gauge] : gauges_) {
      json.Key(name).Number(gauge->value());
    }
    json.EndObject();
    // Value-histogram sums are thread-interleaving-dependent floating point, so
    // they live here even though the histograms' shapes are in "counts".
    json.Key("histogram_sums").BeginObject();
    for (const auto& [name, histogram] : histograms_) {
      json.Key(name).Number(histogram->sum());
    }
    json.EndObject();
    json.Key("timers").BeginObject();
    for (const auto& [name, timer] : timers_) {
      json.Key(name).BeginObject();
      json.Key("count").Int(timer->count());
      json.Key("total_seconds").Number(timer->sum());
      json.Key("min_seconds").Number(timer->min());
      json.Key("max_seconds").Number(timer->max());
      json.EndObject();
    }
    json.EndObject();
    // The global pool's utilization counters ride along in every snapshot, so
    // each --metrics_out profile shows how busy the parallel layer was.
    const base::ThreadPoolStats pool = base::ThreadPool::Global().stats();
    json.Key("pool").BeginObject();
    json.Key("max_parallelism").Int(base::ThreadPool::Global().max_parallelism());
    json.Key("tasks_scheduled").Int(pool.tasks_scheduled);
    json.Key("tasks_executed").Int(pool.tasks_executed);
    json.Key("idle_waits").Int(pool.idle_waits);
    json.Key("parallel_loops").Int(pool.parallel_loops);
    json.Key("serial_loops").Int(pool.serial_loops);
    json.Key("loop_chunks").Int(pool.loop_chunks);
    json.EndObject();
    json.Key("trace");
    WriteTraceNode(json, trace_root_);
    json.EndObject();  // timings
  }

  json.EndObject();
  return json.str();
}

Status MetricRegistry::WriteSnapshot(const std::string& path) const {
  return io::WriteFileAtomic(path, SnapshotJson(/*include_timings=*/true) + "\n");
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  timers_.clear();
  trace_root_.Clear();
}

}  // namespace tsg::obs
