#ifndef TSG_OBS_METRICS_H_
#define TSG_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "base/status.h"
#include "obs/trace.h"

namespace tsg::obs {

/// Lock-free double cell built on a uint64 CAS loop — the accumulator behind
/// histogram sums and min/max. Relaxed ordering: metric values are diagnostics,
/// not synchronization.
class AtomicDouble {
 public:
  explicit AtomicDouble(double init = 0.0);

  /// Current value (relaxed load).
  double value() const;
  /// Unconditional overwrite; last writer wins under concurrency.
  void Store(double v);
  /// Atomic `+= delta`. The floating-point total depends on the interleaving,
  /// so Add-built values are exported with the timings, not the counts.
  void Add(double delta);
  /// Lowers (raises) the cell to v when v is smaller (larger) than the current
  /// value. The final result is order-independent — the same for any thread
  /// interleaving — unlike Add, whose floating-point sum is not.
  void Min(double v);
  void Max(double v);

 private:
  template <typename Fold>
  void Update(double v, Fold fold);

  std::atomic<uint64_t> bits_;
};

/// Monotonic event count. Adds are relaxed atomics; the total is exact and
/// independent of thread interleaving, so counters live in the deterministic
/// half of a snapshot.
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (pool width, current epoch, ...). The
/// surviving writer under concurrency is unspecified, so gauges are exported
/// with the timings, never in the deterministic section.
class Gauge {
 public:
  void Set(double v) { value_.Store(v); }
  double value() const { return value_.value(); }

 private:
  AtomicDouble value_;
};

/// Fixed-layout distribution sketch: total/negative/non-finite counts, running
/// min/max/sum, and power-of-two magnitude buckets (bucket 0 holds exact zeros;
/// bucket i>0 holds |v| with clamped floor(log2|v|) = i - 33). Everything except
/// `sum` is an order-independent aggregate, so a snapshot's count/min/max/bucket
/// fields are bit-identical for any thread count while the floating-point sum
/// (and thus the mean) is not — the registry exports them accordingly.
/// Non-finite values only bump nonfinite_count; they never poison min/max/sum.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  /// Folds one observation in. Thread-safe and lock-free.
  void Record(double v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t negative_count() const {
    return negatives_.load(std::memory_order_relaxed);
  }
  int64_t nonfinite_count() const {
    return nonfinite_.load(std::memory_order_relaxed);
  }
  /// Min/max over recorded finite values; +inf/-inf while count() == 0.
  double min() const { return min_.value(); }
  double max() const { return max_.value(); }
  double sum() const { return sum_.value(); }
  /// Count of recorded values whose magnitude falls in bucket i (see class
  /// comment for the bucket boundaries).
  int64_t bucket(int i) const;

  /// Bucket index for a finite value (see class comment).
  static int BucketIndex(double v);

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> negatives_{0};
  std::atomic<int64_t> nonfinite_{0};
  AtomicDouble sum_;
  AtomicDouble min_{std::numeric_limits<double>::infinity()};
  AtomicDouble max_{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
};

/// Process-wide store of named metrics plus the ScopedTimer trace tree. Lookups
/// create on first use and return references that stay valid until Reset();
/// hot paths may cache them. Names are dot-separated, coarse-to-fine
/// ("train.TimeGAN.joint.loss", "grid.cells.resumed" — see DESIGN.md §5).
///
/// Snapshot contract, mirroring the grid-summary split from the fault-tolerance
/// layer: the "counts" half (counters + value-histogram shapes) is byte-identical
/// across runs and thread counts for a deterministic workload; the "timings"
/// half (gauges, sums/means, timer histograms, thread-pool stats, trace tree)
/// carries wall-clock and interleaving-dependent values and is stripped before
/// any determinism comparison.
class MetricRegistry {
 public:
  MetricRegistry();
  ~MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry every subsystem reports into. Intentionally
  /// leaked, like the global ThreadPool, so telemetry from worker threads stays
  /// valid through static destruction.
  static MetricRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// Value histogram: deterministic data (losses, gradient norms); its shape is
  /// exported in the "counts" section.
  Histogram& GetHistogram(const std::string& name);
  /// Timing histogram (seconds): exported entirely under "timings".
  Histogram& GetTimer(const std::string& name);
  /// Shorthand for GetTimer(name).Record(seconds).
  void RecordTimer(const std::string& name, double seconds);

  /// Root of this registry's ScopedTimer trace tree.
  TraceNode& trace_root() { return trace_root_; }

  /// Deterministic JSON document (sorted keys, %.17g doubles via io::JsonWriter):
  /// {"counts": {"counters", "histograms"}, "timings": {"gauges",
  /// "histogram_sums", "timers", "pool", "trace"}}. With include_timings false
  /// the "timings" key is omitted — the form determinism tests compare.
  std::string SnapshotJson(bool include_timings = true) const;

  /// Atomically writes SnapshotJson(true) + trailing newline to `path`.
  Status WriteSnapshot(const std::string& path) const;

  /// Drops every metric and the trace tree. For tests and bench reruns only —
  /// not safe concurrently with metric writes (cached references go stale).
  void Reset();

  /// Bumped by every Reset(). Hot paths that cache Get* references compare this
  /// against the generation they resolved under and re-resolve on mismatch,
  /// instead of paying a map lookup (and a std::string build) per step.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  template <typename T>
  T& GetNamed(std::map<std::string, std::unique_ptr<T>>* family,
              const std::string& name);

  mutable std::mutex mu_;
  std::atomic<uint64_t> generation_{0};
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Histogram>> timers_;
  TraceNode trace_root_;
};

}  // namespace tsg::obs

#endif  // TSG_OBS_METRICS_H_
