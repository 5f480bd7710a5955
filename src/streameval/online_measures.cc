#include "streameval/online_measures.h"

#include <cmath>

#include "base/check.h"
#include "base/thread_pool.h"
#include "distance/distance.h"

namespace tsg::streameval {
namespace {

/// Reference sample paired with stream position p: the stream cycles through
/// the reference set, so the batch counterpart of a window is the reference
/// Select()ed at these rotated indices (see StreamEvaluator::WindowDataset).
int64_t PairIndex(const core::Dataset& reference, int64_t position) {
  return position % reference.num_samples();
}

/// FGD's per-series embedding: each feature's temporal mean, then each
/// feature's population stddev (2N values).
std::vector<double> MomentFeatures(const Matrix& series) {
  const int64_t l = series.rows();
  const int64_t n = series.cols();
  std::vector<double> out(static_cast<size_t>(2 * n), 0.0);
  for (int64_t j = 0; j < n; ++j) {
    double mu = 0.0;
    for (int64_t t = 0; t < l; ++t) mu += series(t, j);
    mu /= static_cast<double>(l);
    double m2 = 0.0;
    for (int64_t t = 0; t < l; ++t) {
      const double d = series(t, j) - mu;
      m2 += d * d;
    }
    out[static_cast<size_t>(j)] = mu;
    out[static_cast<size_t>(n + j)] = std::sqrt(m2 / static_cast<double>(l));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// ED / DTW: cache the per-pair distance at Update, re-fold at Snapshot in window
// order. The fold in ParallelMapReduce is strictly index-ordered, so replaying
// cached values in window order is bit-identical to the batch evaluation.
// ---------------------------------------------------------------------------

Status OnlinePairedDistance::Update(const std::vector<const WindowItem*>& batch) {
  for (const WindowItem* item : batch) {
    const Matrix& ref = reference_->sample(PairIndex(*reference_, item->position));
    cached_.push_back(distance_(ref, item->series));
  }
  return Status::Ok();
}

Status OnlinePairedDistance::Evict(const WindowItem& /*item*/) {
  TSG_CHECK(!cached_.empty());
  cached_.pop_front();
  return Status::Ok();
}

StatusOr<double> OnlinePairedDistance::Snapshot(const Window& window) const {
  TSG_CHECK_EQ(static_cast<int64_t>(cached_.size()),
               static_cast<int64_t>(window.size()));
  const int64_t pairs = static_cast<int64_t>(window.size());
  const double total = base::ParallelSum(pairs, 16, [&](int64_t i) {
    return cached_[static_cast<size_t>(i)];
  });
  return total / static_cast<double>(pairs);
}

OnlineEuclidean::OnlineEuclidean(std::shared_ptr<const core::Dataset> reference)
    : OnlinePairedDistance(std::move(reference), "ED", &distance::EuclideanDistance) {}

OnlineDtw::OnlineDtw(std::shared_ptr<const core::Dataset> reference)
    : OnlinePairedDistance(std::move(reference), "DTW",
                           [](const Matrix& ref, const Matrix& series) {
                             return distance::DtwDistance(ref, series);
                           }) {}

// ---------------------------------------------------------------------------
// MDD: integer bin counts with edges frozen on the reference make the window
// histograms exactly maintainable under Add/Remove.
// ---------------------------------------------------------------------------

OnlineMdd::OnlineMdd(std::shared_ptr<const core::Dataset> reference)
    : reference_(std::move(reference)) {
  const int64_t n = reference_->num_features();
  const int64_t l = reference_->seq_len();
  real_hists_.reserve(static_cast<size_t>(n * l));
  gen_hists_.reserve(static_cast<size_t>(n * l));
  for (int64_t cell = 0; cell < n * l; ++cell) {
    const std::vector<double> real_vals =
        reference_->FeatureValuesAt(cell / l, cell % l);
    stats::Histogram real_hist = core::MddHistogram(real_vals);
    gen_hists_.push_back(real_hist);
    real_hist.AddAll(real_vals);
    real_hists_.push_back(std::move(real_hist));
  }
}

Status OnlineMdd::Update(const std::vector<const WindowItem*>& batch) {
  const int64_t n = reference_->num_features();
  const int64_t l = reference_->seq_len();
  for (const WindowItem* item : batch) {
    for (int64_t cell = 0; cell < n * l; ++cell) {
      gen_hists_[static_cast<size_t>(cell)].Add(item->series(cell % l, cell / l));
    }
  }
  return Status::Ok();
}

Status OnlineMdd::Evict(const WindowItem& item) {
  const int64_t n = reference_->num_features();
  const int64_t l = reference_->seq_len();
  for (int64_t cell = 0; cell < n * l; ++cell) {
    gen_hists_[static_cast<size_t>(cell)].Remove(item.series(cell % l, cell / l));
  }
  return Status::Ok();
}

StatusOr<double> OnlineMdd::Snapshot(const Window& window) const {
  const int64_t cells = static_cast<int64_t>(real_hists_.size());
  TSG_CHECK_EQ(gen_hists_.empty() ? 0 : gen_hists_[0].total_count(),
               static_cast<int64_t>(window.size()));
  const double total = base::ParallelSum(cells, 8, [&](int64_t cell) {
    return real_hists_[static_cast<size_t>(cell)].MeanAbsDiff(
        gen_hists_[static_cast<size_t>(cell)]);
  });
  return total / static_cast<double>(cells);
}

// ---------------------------------------------------------------------------
// ACD: per-item ACFs cached at Update; the reference mean ACF frozen at
// construction; Snapshot averages the cached ACFs in window order.
// ---------------------------------------------------------------------------

OnlineAcd::OnlineAcd(std::shared_ptr<const core::Dataset> reference)
    : num_features_(reference->num_features()) {
  for (int64_t j = 0; j < num_features_; ++j) {
    real_acf_.push_back(core::MeanAcf(*reference, j));
  }
}

Status OnlineAcd::Update(const std::vector<const WindowItem*>& batch) {
  for (const WindowItem* item : batch) {
    std::vector<std::vector<double>> acfs;
    acfs.reserve(static_cast<size_t>(num_features_));
    for (int64_t j = 0; j < num_features_; ++j) {
      acfs.push_back(core::SeriesAcf(item->series, j));
    }
    cached_.push_back(std::move(acfs));
  }
  return Status::Ok();
}

Status OnlineAcd::Evict(const WindowItem& /*item*/) {
  TSG_CHECK(!cached_.empty());
  cached_.pop_front();
  return Status::Ok();
}

StatusOr<double> OnlineAcd::Snapshot(const Window& window) const {
  TSG_CHECK_EQ(static_cast<int64_t>(cached_.size()),
               static_cast<int64_t>(window.size()));
  const double total = base::ParallelSum(num_features_, 1, [&](int64_t j) {
    const std::vector<double> gen_acf = core::MeanAcf(
        static_cast<int64_t>(cached_.size()),
        [&](int64_t i) -> const std::vector<double>& {
          return cached_[static_cast<size_t>(i)][static_cast<size_t>(j)];
        });
    return core::AcfDifference(real_acf_[static_cast<size_t>(j)], gen_acf);
  });
  return total / static_cast<double>(num_features_);
}

// ---------------------------------------------------------------------------
// SD / KD: the batch measure's MomentDifference against the frozen reference
// moments, on the retained raw window gathered in the same (sample, time) order
// as Dataset::FeatureValues.
// ---------------------------------------------------------------------------

OnlineMomentsDiff::OnlineMomentsDiff(std::shared_ptr<const core::Dataset> reference,
                                     Kind kind)
    : seq_len_(reference->seq_len()), kind_(kind) {
  for (int64_t j = 0; j < reference->num_features(); ++j) {
    real_moments_.push_back(stats::ComputeMoments(reference->FeatureValues(j)));
  }
}

StatusOr<double> OnlineMomentsDiff::Snapshot(const Window& window) const {
  const int64_t n = static_cast<int64_t>(real_moments_.size());
  const double total = base::ParallelSum(n, 1, [&](int64_t j) {
    std::vector<double> vals;
    vals.reserve(window.size() * static_cast<size_t>(seq_len_));
    for (const WindowItem& item : window) {
      for (int64_t t = 0; t < seq_len_; ++t) vals.push_back(item.series(t, j));
    }
    return core::MomentDifference(kind_, real_moments_[static_cast<size_t>(j)], vals);
  });
  return total / static_cast<double>(n);
}

// ---------------------------------------------------------------------------
// MMD: the batch measure's RbfMmdFromDistances on the frozen reference block
// and the blocks the window adds.
// ---------------------------------------------------------------------------

OnlineMmd::OnlineMmd(std::shared_ptr<const core::Dataset> reference)
    : ref_rows_(core::MmdRows(reference->SampleRefs())),
      ref_dist_(distance::PairwiseSquaredDistances(ref_rows_)) {}

StatusOr<double> OnlineMmd::Snapshot(const Window& window) const {
  std::vector<const Matrix*> series;
  series.reserve(window.size());
  for (const WindowItem& item : window) series.push_back(&item.series);
  const Matrix gen_rows = core::MmdRows(series);
  if (ref_rows_.rows() < 2 || gen_rows.rows() < 2) {
    return Status::FailedPrecondition(
        "MMD needs at least 2 series on each side");
  }
  const Matrix gen_dist = distance::PairwiseSquaredDistances(gen_rows);
  const Matrix cross_dist = distance::CrossSquaredDistances(ref_rows_, gen_rows);
  return distance::RbfMmdFromDistances(ref_dist_, gen_dist, cross_dist, -1.0);
}

// ---------------------------------------------------------------------------
// GaussianStats: Welford single-point update + Chan parallel merge.
// ---------------------------------------------------------------------------

void GaussianStats::Add(const std::vector<double>& x) {
  const int64_t d = dim();
  TSG_CHECK_EQ(static_cast<int64_t>(x.size()), d);
  ++n;
  std::vector<double> delta(static_cast<size_t>(d));
  for (int64_t i = 0; i < d; ++i) {
    delta[static_cast<size_t>(i)] = x[static_cast<size_t>(i)] -
                                    mean[static_cast<size_t>(i)];
    mean[static_cast<size_t>(i)] +=
        delta[static_cast<size_t>(i)] / static_cast<double>(n);
  }
  for (int64_t i = 0; i < d; ++i) {
    const double d2i = x[static_cast<size_t>(i)] - mean[static_cast<size_t>(i)];
    for (int64_t j = 0; j < d; ++j) {
      m2[static_cast<size_t>(i * d + j)] +=
          delta[static_cast<size_t>(j)] * d2i;
    }
  }
}

void GaussianStats::Merge(const GaussianStats& other) {
  TSG_CHECK_EQ(dim(), other.dim());
  if (other.n == 0) return;
  if (n == 0) {
    *this = other;
    return;
  }
  const int64_t d = dim();
  const double na = static_cast<double>(n);
  const double nb = static_cast<double>(other.n);
  const double nt = na + nb;
  std::vector<double> delta(static_cast<size_t>(d));
  for (int64_t i = 0; i < d; ++i) {
    delta[static_cast<size_t>(i)] =
        other.mean[static_cast<size_t>(i)] - mean[static_cast<size_t>(i)];
  }
  for (int64_t i = 0; i < d; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      m2[static_cast<size_t>(i * d + j)] +=
          other.m2[static_cast<size_t>(i * d + j)] +
          delta[static_cast<size_t>(i)] * delta[static_cast<size_t>(j)] *
              (na * nb / nt);
    }
  }
  for (int64_t i = 0; i < d; ++i) {
    mean[static_cast<size_t>(i)] += delta[static_cast<size_t>(i)] * nb / nt;
  }
  n += other.n;
}

Matrix GaussianStats::Covariance() const {
  TSG_CHECK_GT(n, 1);
  const int64_t d = dim();
  Matrix cov(d, d);
  // The Welford co-moment is symmetric only up to rounding; symmetrize so the
  // Jacobi-based SqrtSymmetric downstream sees an exactly symmetric operand.
  for (int64_t i = 0; i < d; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      cov(i, j) = 0.5 *
                  (m2[static_cast<size_t>(i * d + j)] +
                   m2[static_cast<size_t>(j * d + i)]) /
                  static_cast<double>(n - 1);
    }
  }
  return cov;
}

StatusOr<double> FrechetFromMoments(const GaussianStats& a,
                                    const GaussianStats& b, double ridge) {
  if (a.dim() != b.dim()) {
    return Status::InvalidArgument("feature dimensions differ");
  }
  if (a.n < 2 || b.n < 2) {
    return Status::FailedPrecondition(
        "need at least 2 observations per Gaussian");
  }
  return distance::FrechetFromMoments(a.mean, a.Covariance(), b.mean,
                                      b.Covariance(), ridge);
}

// ---------------------------------------------------------------------------
// FGD: moment-feature embedding + streaming Gaussians.
// ---------------------------------------------------------------------------

OnlineFeatureGaussian::OnlineFeatureGaussian(
    std::shared_ptr<const core::Dataset> reference)
    : ref_stats_(2 * reference->num_features()),
      gen_stats_(2 * reference->num_features()) {
  for (const Matrix& series : reference->samples()) {
    ref_stats_.Add(MomentFeatures(series));
  }
}

Status OnlineFeatureGaussian::Update(
    const std::vector<const WindowItem*>& batch) {
  // Welford within the batch, Chan merge into the stream accumulator — the
  // association that makes this state batch-boundary-dependent (the sampled
  // tier).
  GaussianStats local(gen_stats_.dim());
  for (const WindowItem* item : batch) local.Add(MomentFeatures(item->series));
  gen_stats_.Merge(local);
  return Status::Ok();
}

StatusOr<double> OnlineFeatureGaussian::Snapshot(const Window& /*window*/) const {
  return FrechetFromMoments(ref_stats_, gen_stats_);
}

}  // namespace tsg::streameval
