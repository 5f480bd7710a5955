#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "stats/descriptive.h"

namespace tsg::stats {

Histogram::Histogram(double lo, double hi, int num_bins)
    : lo_(lo), hi_(hi), counts_(static_cast<size_t>(num_bins), 0) {
  TSG_CHECK_GT(num_bins, 0);
  if (hi_ <= lo_) hi_ = lo_ + 1.0;  // Degenerate range: one catch-all span.
  width_ = (hi_ - lo_) / static_cast<double>(num_bins);
}

Histogram Histogram::FitRange(const std::vector<double>& sample, int num_bins) {
  TSG_CHECK(!sample.empty());
  return Histogram(Min(sample), Max(sample), num_bins);
}

void Histogram::Add(double value) {
  int b = static_cast<int>(std::floor((value - lo_) / width_));
  b = std::clamp(b, 0, num_bins() - 1);
  ++counts_[static_cast<size_t>(b)];
  ++total_;
}

void Histogram::AddAll(const std::vector<double>& values) {
  for (double v : values) Add(v);
}

void Histogram::Remove(double value) {
  int b = static_cast<int>(std::floor((value - lo_) / width_));
  b = std::clamp(b, 0, num_bins() - 1);
  TSG_CHECK_GT(counts_[static_cast<size_t>(b)], 0)
      << "Remove(" << value << ") from an empty bin " << b;
  --counts_[static_cast<size_t>(b)];
  --total_;
}

std::vector<double> Histogram::Probabilities() const {
  std::vector<double> p(counts_.size(), 0.0);
  if (total_ == 0) return p;
  for (size_t i = 0; i < counts_.size(); ++i) {
    p[i] = static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }
  return p;
}

double Histogram::MeanAbsDiff(const Histogram& other) const {
  TSG_CHECK_EQ(num_bins(), other.num_bins());
  const std::vector<double> p = Probabilities();
  const std::vector<double> q = other.Probabilities();
  double s = 0.0;
  for (size_t i = 0; i < p.size(); ++i) s += std::fabs(p[i] - q[i]);
  return s / static_cast<double>(p.size());
}

}  // namespace tsg::stats
