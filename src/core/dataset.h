#ifndef TSG_CORE_DATASET_H_
#define TSG_CORE_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "linalg/matrix.h"

namespace tsg::core {

using linalg::Matrix;

/// Stacks (l x N) series as the rows of a (count x l*N) matrix, each row its
/// series' cells in time-major order: Dataset::Flatten, and the MMD measure's
/// rows of a dataset or a stream window.
Matrix FlattenSeries(const std::vector<const Matrix*>& series);

/// A preprocessed TSG dataset of shape (R, l, N): R window samples, each an (l x N)
/// matrix (rows are time steps, columns the N individual series). This is the common
/// currency between the preprocessing pipeline, the TSG methods, and the evaluation
/// measures.
class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, std::vector<Matrix> samples);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  int64_t num_samples() const { return static_cast<int64_t>(samples_.size()); }
  int64_t seq_len() const { return samples_.empty() ? 0 : samples_[0].rows(); }
  int64_t num_features() const { return samples_.empty() ? 0 : samples_[0].cols(); }
  bool empty() const { return samples_.empty(); }

  const Matrix& sample(int64_t i) const { return samples_[static_cast<size_t>(i)]; }
  const std::vector<Matrix>& samples() const { return samples_; }
  /// The samples by pointer, in order; valid while the dataset lives.
  std::vector<const Matrix*> SampleRefs() const;

  /// Appends a sample; must match the established (l, N) shape.
  void Add(Matrix sample);

  /// First `count` samples (clamped) as a new dataset.
  Dataset Head(int64_t count) const;
  /// Samples selected by index.
  Dataset Select(const std::vector<int64_t>& indices) const;
  /// Seeded random permutation of the samples.
  Dataset Shuffled(Rng& rng) const;
  /// Splits into (first ceil(frac*R), rest); the paper's 9:1 train/test split.
  std::pair<Dataset, Dataset> Split(double train_fraction) const;

  /// Flattens every sample to a row -> (R x l*N) matrix (t-SNE / embedding input).
  Matrix Flatten() const { return FlattenSeries(SampleRefs()); }

  /// Content fingerprint (FNV-1a 64 over name, shape, and every sample's bit
  /// pattern, in order). Two datasets share a fingerprint exactly when a method
  /// fit on them would see identical training input — the dataset component of
  /// an artifact-store key.
  uint64_t Fingerprint() const;

  /// All values of feature `j` across samples and time, in (sample, time) order.
  std::vector<double> FeatureValues(int64_t j) const;
  /// Values of feature `j` at time step `t` across samples.
  std::vector<double> FeatureValuesAt(int64_t j, int64_t t) const;
  /// Every value in the dataset (for distribution plots).
  std::vector<double> AllValues() const;

 private:
  std::string name_;
  std::vector<Matrix> samples_;
};

}  // namespace tsg::core

#endif  // TSG_CORE_DATASET_H_
