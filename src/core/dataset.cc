#include "core/dataset.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "base/fnv.h"

namespace tsg::core {

Dataset::Dataset(std::string name, std::vector<Matrix> samples)
    : name_(std::move(name)), samples_(std::move(samples)) {
  for (const Matrix& s : samples_) {
    TSG_CHECK_EQ(s.rows(), seq_len());
    TSG_CHECK_EQ(s.cols(), num_features());
  }
}

void Dataset::Add(Matrix sample) {
  if (!samples_.empty()) {
    TSG_CHECK_EQ(sample.rows(), seq_len());
    TSG_CHECK_EQ(sample.cols(), num_features());
  }
  samples_.push_back(std::move(sample));
}

Dataset Dataset::Head(int64_t count) const {
  count = std::min(count, num_samples());
  std::vector<Matrix> out(samples_.begin(), samples_.begin() + count);
  return Dataset(name_, std::move(out));
}

Dataset Dataset::Select(const std::vector<int64_t>& indices) const {
  std::vector<Matrix> out;
  out.reserve(indices.size());
  for (int64_t i : indices) {
    TSG_CHECK(i >= 0 && i < num_samples());
    out.push_back(samples_[static_cast<size_t>(i)]);
  }
  return Dataset(name_, std::move(out));
}

Dataset Dataset::Shuffled(Rng& rng) const {
  return Select(rng.Permutation(num_samples()));
}

std::pair<Dataset, Dataset> Dataset::Split(double train_fraction) const {
  TSG_CHECK(train_fraction > 0.0 && train_fraction <= 1.0);
  const int64_t train_count = static_cast<int64_t>(
      std::ceil(train_fraction * static_cast<double>(num_samples())));
  std::vector<Matrix> train(samples_.begin(), samples_.begin() + train_count);
  std::vector<Matrix> test(samples_.begin() + train_count, samples_.end());
  return {Dataset(name_, std::move(train)), Dataset(name_, std::move(test))};
}

Matrix FlattenSeries(const std::vector<const Matrix*>& series) {
  if (series.empty()) return Matrix();
  const int64_t r = static_cast<int64_t>(series.size());
  const int64_t l = series[0]->rows(), n = series[0]->cols();
  Matrix out(r, l * n);
  for (int64_t i = 0; i < r; ++i) {
    const Matrix& s = *series[static_cast<size_t>(i)];
    for (int64_t t = 0; t < l; ++t)
      for (int64_t j = 0; j < n; ++j) out(i, t * n + j) = s(t, j);
  }
  return out;
}

std::vector<const Matrix*> Dataset::SampleRefs() const {
  std::vector<const Matrix*> out;
  out.reserve(samples_.size());
  for (const Matrix& s : samples_) out.push_back(&s);
  return out;
}

uint64_t Dataset::Fingerprint() const {
  base::Fnv64 hash;
  hash.String(name_);
  hash.I64(num_samples()).I64(seq_len()).I64(num_features());
  for (const Matrix& s : samples_) {
    for (int64_t i = 0; i < s.size(); ++i) hash.F64(s[i]);
  }
  return hash.digest();
}

std::vector<double> Dataset::FeatureValues(int64_t j) const {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(num_samples() * seq_len()));
  for (const Matrix& s : samples_) {
    for (int64_t t = 0; t < s.rows(); ++t) out.push_back(s(t, j));
  }
  return out;
}

std::vector<double> Dataset::FeatureValuesAt(int64_t j, int64_t t) const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const Matrix& s : samples_) out.push_back(s(t, j));
  return out;
}

std::vector<double> Dataset::AllValues() const {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(num_samples() * seq_len() * num_features()));
  for (const Matrix& s : samples_) {
    for (int64_t i = 0; i < s.size(); ++i) out.push_back(s[i]);
  }
  return out;
}

}  // namespace tsg::core
