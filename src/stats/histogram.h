#ifndef TSG_STATS_HISTOGRAM_H_
#define TSG_STATS_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace tsg::stats {

/// Fixed-bin histogram with edges frozen at construction. The MDD measure (M4) fits
/// bin edges on the original series, then histograms the generated series with the
/// *same* edges — so the two distributions are directly comparable.
class Histogram {
 public:
  /// Uniform bins spanning [lo, hi]; values outside are clamped into the end bins.
  Histogram(double lo, double hi, int num_bins);

  /// Convenience: edges spanning the sample's [min, max].
  static Histogram FitRange(const std::vector<double>& sample, int num_bins);

  void Add(double value);
  void AddAll(const std::vector<double>& values);

  /// Exact inverse of Add for the same value: decrements the bin the value maps
  /// to. Integer bin counts make removal lossless, which is what lets the
  /// streaming MDD state (src/streameval) evict expired window samples and stay
  /// bit-identical to a batch histogram of the surviving ones. It is a checked
  /// error to remove from an empty bin.
  void Remove(double value);

  int num_bins() const { return static_cast<int>(counts_.size()); }
  int64_t total_count() const { return total_; }

  /// Normalized bin probabilities (sums to 1; all-zero when empty).
  std::vector<double> Probabilities() const;

  /// Mean absolute difference of bin probabilities against another histogram with the
  /// same binning — the per-cell statistic inside MDD.
  double MeanAbsDiff(const Histogram& other) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

}  // namespace tsg::stats

#endif  // TSG_STATS_HISTOGRAM_H_
