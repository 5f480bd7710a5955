#ifndef TSG_STREAMEVAL_STREAM_EVALUATOR_H_
#define TSG_STREAMEVAL_STREAM_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/dataset.h"
#include "streameval/drift.h"
#include "streameval/online_measures.h"

namespace tsg::streameval {

/// Configuration for a StreamEvaluator (DESIGN.md §12).
struct StreamEvalOptions {
  /// Series per evaluation window. Snapshots are taken at every multiple of
  /// `window` series (tumbling cadence); the sliding state always holds the
  /// most recent `window` series.
  int64_t window = 64;
  /// Metric namespace, e.g. "stream.alpha". Per-measure gauges land at
  /// "<prefix>.<measure>" / "<prefix>.<measure>.delta"; counters at
  /// "<prefix>.windows", "<prefix>.series", "<prefix>.alarms",
  /// "<prefix>.<measure>.alarms", "<prefix>.errors". Empty disables export.
  std::string metric_prefix;
};

/// Windowed incremental evaluation of a generated-series stream against a
/// fixed reference set — the live counterpart of core::Measure evaluation
/// (DESIGN.md §12, docs/MEASURES.md).
///
/// Feed batches of generated series with Update(); every `window` series the
/// evaluator snapshots all measure states, feeds the values to its
/// DriftDetector, and (when a metric prefix is set) publishes the per-tenant
/// "stream.*" gauges/counters the daemon's METRICS verb exposes.
///
/// Exactness: for every state but FGD, a snapshot is bit-identical to
/// running the batch measure on (a) the window's series as the generated set
/// and (b) the reference — rotated by stream position for the index-paired
/// distances, whole for the distributional measures — as the real set, at any
/// window size, batch slicing, and thread count. VerifyExactAgainstBatch()
/// enforces exactly that equivalence through the real core::Measure code and
/// is wired into tests, the CI smoke gate, and the daemon's stream_eval job.
class StreamEvaluator {
 public:
  /// Validates options and copies `reference` (the evaluator owns its
  /// reference so a long-lived stream never dangles).
  static StatusOr<std::unique_ptr<StreamEvaluator>> Create(
      const core::Dataset& reference, StreamEvalOptions options);

  /// Folds a batch of generated series in, slicing internally so every window
  /// boundary is honored even when a batch spans several windows.
  Status Update(const std::vector<Matrix>& batch);

  /// Measure values of the current (possibly partial) window, without touching
  /// drift state or metrics. States whose preconditions fail (e.g. MMD on a
  /// 1-series window) are omitted.
  StatusOr<std::map<std::string, double>> SnapshotNow() const;

  /// Checks the ED, DTW, MDD, ACD, SD, KD and MMD snapshots byte-for-byte
  /// against the corresponding batch measure run on the window; returns
  /// Internal on any mismatch. The current window must be non-empty.
  Status VerifyExactAgainstBatch() const;

  /// The window's series as a Dataset (oldest first) — the generated side of
  /// the batch counterpart.
  core::Dataset WindowDataset() const;

  int64_t series_seen() const { return series_seen_; }
  int64_t windows_completed() const { return windows_completed_; }
  int64_t alarms_total() const { return drift_.alarms_total(); }
  int64_t window_size() const { return static_cast<int64_t>(window_.size()); }
  const core::Dataset& reference() const { return *reference_; }

  /// Measure values / raw drift deltas of the last completed window (empty
  /// before the first boundary).
  const std::map<std::string, double>& last_snapshot() const {
    return last_snapshot_;
  }
  const std::map<std::string, double>& last_deltas() const {
    return last_deltas_;
  }

 private:
  StreamEvaluator(std::shared_ptr<const core::Dataset> reference,
                  StreamEvalOptions options);

  /// Snapshot at a window boundary: record values, feed drift, export metrics.
  Status TakeSnapshot();

  std::shared_ptr<const core::Dataset> reference_;
  StreamEvalOptions options_;
  std::vector<std::unique_ptr<OnlineMeasureState>> states_;
  Window window_;
  DriftDetector drift_;
  int64_t series_seen_ = 0;
  int64_t windows_completed_ = 0;
  int64_t exported_alarms_ = 0;  ///< Alarms already flushed to the counter.
  std::map<std::string, double> last_snapshot_;
  std::map<std::string, double> last_deltas_;
};

}  // namespace tsg::streameval

#endif  // TSG_STREAMEVAL_STREAM_EVALUATOR_H_
