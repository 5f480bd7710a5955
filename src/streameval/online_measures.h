#ifndef TSG_STREAMEVAL_ONLINE_MEASURES_H_
#define TSG_STREAMEVAL_ONLINE_MEASURES_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/dataset.h"
#include "core/measures.h"
#include "linalg/matrix.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"

namespace tsg::streameval {

using linalg::Matrix;

/// One generated series inside the sliding evaluation window, tagged with its
/// zero-based position in the overall stream. The position drives reference
/// pairing for the index-paired distance measures: stream item p is paired with
/// reference sample p mod R, so an endless stream cycles through the reference
/// set instead of running off its end.
struct WindowItem {
  Matrix series;     ///< (l x N) generated window sample.
  int64_t position;  ///< Zero-based position in the stream.
};

/// The sliding window, oldest first. Owned by StreamEvaluator; states receive
/// it by reference at snapshot time so per-item caches and raw samples always
/// describe the same set of series.
using Window = std::deque<WindowItem>;

/// Incremental state for one evaluation measure over a sliding window of
/// generated series (DESIGN.md §12, docs/MEASURES.md).
///
/// Lifecycle: `Update(batch)` folds newly arrived series in (expensive per-item
/// work — DP tables, ACFs, histogram inserts — happens here, once per item);
/// `Evict(item)` retires the oldest series when it leaves the window;
/// `Snapshot(window)` produces the measure value for exactly the series
/// currently in `window`.
///
/// Each state is built from its batch measure's own functions (core/measures.h,
/// distance/distance.h): it caches their per-series results and replays the
/// batch measure's index-ordered fold, which base::ParallelSum keeps
/// bit-identical for any thread count. ED, DTW, MDD, ACD, SD, KD and MMD are
/// therefore bit-identical to the batch measure on a dataset holding the
/// window's series, for any window size and batch slicing;
/// StreamEvaluator::VerifyExactAgainstBatch lists and checks exactly these.
/// FGD is the sampled tier: its Welford/Chan moments depend on batch
/// boundaries, so it is checked by tolerance.
class OnlineMeasureState {
 public:
  virtual ~OnlineMeasureState() = default;
  OnlineMeasureState() = default;
  OnlineMeasureState(const OnlineMeasureState&) = delete;
  OnlineMeasureState& operator=(const OnlineMeasureState&) = delete;

  /// Stable short name, matching the batch measure's name where one exists
  /// ("ED", "DTW", "MDD", "ACD", "SD", "KD", "MMD") so report columns line up.
  virtual std::string name() const = 0;

  /// Folds `batch` (newly appended window items, oldest first) into the state.
  /// Called before the corresponding Evict calls for items the batch displaces.
  virtual Status Update(const std::vector<const WindowItem*>& batch) = 0;

  /// Retires one item that just left the window (the oldest). States that
  /// aggregate over the whole stream rather than the window ignore this.
  virtual Status Evict(const WindowItem& /*item*/) { return Status::Ok(); }

  /// Measure value for the series currently in `window` (oldest first). The
  /// window is never empty. States must not mutate anything — Snapshot may be
  /// called repeatedly (live METRICS reads, self-verification).
  virtual StatusOr<double> Snapshot(const Window& window) const = 0;
};

/// An index-paired distance (M11 ED, M12 DTW): each item's distance to its
/// paired reference sample is computed once at Update and cached; Snapshot
/// re-folds the cached values in window order, as the batch measure sums its
/// pairs.
class OnlinePairedDistance : public OnlineMeasureState {
 public:
  using Distance = double (*)(const Matrix& reference, const Matrix& series);
  std::string name() const override { return name_; }
  Status Update(const std::vector<const WindowItem*>& batch) override;
  Status Evict(const WindowItem& item) override;
  StatusOr<double> Snapshot(const Window& window) const override;

 protected:
  OnlinePairedDistance(std::shared_ptr<const core::Dataset> reference,
                       std::string name, Distance distance)
      : reference_(std::move(reference)), name_(std::move(name)),
        distance_(distance) {}

 private:
  std::shared_ptr<const core::Dataset> reference_;
  std::string name_;
  Distance distance_;
  std::deque<double> cached_;  ///< Per-item distances, aligned with the window.
};

/// M11 ED.
class OnlineEuclidean : public OnlinePairedDistance {
 public:
  explicit OnlineEuclidean(std::shared_ptr<const core::Dataset> reference);
};

/// M12 DTW (dependent, unconstrained band — the batch default); the O(l^2) DP
/// table per pair runs once, at Update.
class OnlineDtw : public OnlinePairedDistance {
 public:
  explicit OnlineDtw(std::shared_ptr<const core::Dataset> reference);
};

/// M4 MDD, truly incremental: each (feature, step) cell's histogram comes from
/// core::MddHistogram on the reference at construction, and integer bin counts
/// make Add/Remove lossless, so the generated-side histograms always equal a
/// from-scratch histogram of the window. Snapshot is O(n*l*bins) regardless of
/// window size.
class OnlineMdd : public OnlineMeasureState {
 public:
  explicit OnlineMdd(std::shared_ptr<const core::Dataset> reference);
  std::string name() const override { return "MDD"; }
  Status Update(const std::vector<const WindowItem*>& batch) override;
  Status Evict(const WindowItem& item) override;
  StatusOr<double> Snapshot(const Window& window) const override;

 private:
  std::shared_ptr<const core::Dataset> reference_;
  std::vector<stats::Histogram> real_hists_;  ///< Frozen reference histograms.
  std::vector<stats::Histogram> gen_hists_;   ///< Live window histograms.
};

/// M5 ACD. Each item's per-feature core::SeriesAcf is computed once at Update
/// and cached; the reference side's core::MeanAcf is frozen at construction.
/// Snapshot averages the cached ACFs through core::MeanAcf in window order.
class OnlineAcd : public OnlineMeasureState {
 public:
  explicit OnlineAcd(std::shared_ptr<const core::Dataset> reference);
  std::string name() const override { return "ACD"; }
  Status Update(const std::vector<const WindowItem*>& batch) override;
  Status Evict(const WindowItem& item) override;
  StatusOr<double> Snapshot(const Window& window) const override;

 private:
  int64_t num_features_;
  std::vector<std::vector<double>> real_acf_;  ///< Reference mean ACF per feature.
  /// Per item (aligned with the window), per feature: the series' ACF.
  std::deque<std::vector<std::vector<double>>> cached_;
};

/// M6 SD / M7 KD. The reference's per-feature stats::Moments are computed once,
/// at construction; Snapshot gathers each feature's values from the raw window
/// (retained by the evaluator) and calls core::MomentDifference with them, as
/// the batch measure does on its generated set. O(W*l*n) per snapshot — cheap
/// next to the cached-distance states' Update cost.
class OnlineMomentsDiff : public OnlineMeasureState {
 public:
  using Kind = core::Moment;
  OnlineMomentsDiff(std::shared_ptr<const core::Dataset> reference, Kind kind);
  std::string name() const override {
    return kind_ == Kind::kSkewness ? "SD" : "KD";
  }
  Status Update(const std::vector<const WindowItem*>& /*batch*/) override {
    return Status::Ok();
  }
  StatusOr<double> Snapshot(const Window& window) const override;

 private:
  int64_t seq_len_;
  Kind kind_;
  std::vector<stats::Moments> real_moments_;  ///< Per feature, frozen.
};

/// MMD: the reference's core::MmdRows and their squared-distance block
/// (distance::PairwiseSquaredDistances, at most 256 x 256) are frozen at
/// construction. Snapshot computes only what the window adds, the reference x
/// window cross block and the window's own block, and calls the batch
/// measure's core, distance::RbfMmdFromDistances (median-heuristic gamma), with
/// the frozen block: the same doubles in the same order as distance::RbfMmd.
/// The exp-sums depend on gamma, which moves with every window, so they are
/// recomputed per snapshot. Needs at least 2 series in the window (the unbiased
/// estimator's minimum).
class OnlineMmd : public OnlineMeasureState {
 public:
  explicit OnlineMmd(std::shared_ptr<const core::Dataset> reference);
  std::string name() const override { return "MMD"; }
  Status Update(const std::vector<const WindowItem*>& /*batch*/) override {
    return Status::Ok();
  }
  StatusOr<double> Snapshot(const Window& window) const override;

 private:
  Matrix ref_rows_;  ///< core::MmdRows of the reference, frozen.
  Matrix ref_dist_;  ///< PairwiseSquaredDistances(ref_rows_), frozen.
};

/// Streaming mean/covariance over d-dimensional feature vectors: single-point
/// Welford updates plus Chan's parallel merge rule, so batches can be
/// accumulated independently and folded in. Covariance uses the n-1 (sample)
/// denominator, matching linalg::RowCovariance.
struct GaussianStats {
  explicit GaussianStats(int64_t dim = 0)
      : n(0), mean(static_cast<size_t>(dim), 0.0),
        m2(static_cast<size_t>(dim * dim), 0.0) {}

  int64_t dim() const { return static_cast<int64_t>(mean.size()); }
  /// Welford single-observation update.
  void Add(const std::vector<double>& x);
  /// Chan merge: after Merge(other), the state equals (up to floating-point
  /// association) having Add()ed both operands' observations.
  void Merge(const GaussianStats& other);
  /// Sample covariance (n-1 denominator) as a dense (d x d) matrix; n >= 2.
  Matrix Covariance() const;

  int64_t n;
  std::vector<double> mean;
  std::vector<double> m2;  ///< Co-moment matrix, row-major (d x d).
};

/// FGD — feature-Gaussian divergence, the sampled tier. Embeds each series as a
/// 2N-dim feature vector (per-feature temporal mean and population stddev — the
/// summary statistics a discriminative critic separates sets by), maintains a
/// streaming Gaussian over ALL generated series seen (stream-level: Evict is a
/// no-op, so this tracks lifetime drift rather than the window), and reports
/// the Frechet distance against a Gaussian frozen on the reference set — the
/// C-FID formula on moment features instead of learned embeddings.
///
/// Not bit-identical to any batch computation: Welford/Chan accumulation
/// associates floating-point sums by batch boundary, so two streams with
/// different chunkings agree only to ~1e-9 relative error (bounded-error
/// contract, tested by tolerance).
class OnlineFeatureGaussian : public OnlineMeasureState {
 public:
  explicit OnlineFeatureGaussian(std::shared_ptr<const core::Dataset> reference);
  std::string name() const override { return "FGD"; }
  Status Update(const std::vector<const WindowItem*>& batch) override;
  StatusOr<double> Snapshot(const Window& window) const override;

 private:
  GaussianStats ref_stats_;
  GaussianStats gen_stats_;
};

/// distance::FrechetFromMoments on two streaming Gaussians. Requires equal
/// dimensions and >= 2 observations in each accumulator.
StatusOr<double> FrechetFromMoments(const GaussianStats& a,
                                    const GaussianStats& b,
                                    double ridge = 1e-6);

}  // namespace tsg::streameval

#endif  // TSG_STREAMEVAL_ONLINE_MEASURES_H_
