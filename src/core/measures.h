#ifndef TSG_CORE_MEASURES_H_
#define TSG_CORE_MEASURES_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/dataset.h"
#include "embed/embedder.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"

namespace tsg::core {

/// Everything a measure may need: the real train split (the evaluation reference the
/// paper compares against, T_s^tr), the held-out real split, the generated set, and a
/// context embedder fitted on the real train split (for C-FID). For the
/// distance-based measures the harness generates exactly one sample per reference
/// sample and pairs them by index — the convention that makes the Table 4
/// "identical input" rows exactly zero.
struct MeasureContext {
  const Dataset* real = nullptr;
  const Dataset* real_test = nullptr;
  const Dataset* generated = nullptr;
  const embed::SequenceEmbedder* embedder = nullptr;
  uint64_t seed = 0;
};

/// A single evaluation measure (M1-M7, M11, M12). Lower is better for all of them.
/// Training time (M8) is recorded by the harness; the visualizations (M9, M10) live
/// in core/visualize.h since they emit artifacts rather than one scalar.
class Measure {
 public:
  virtual ~Measure() = default;
  Measure() = default;
  Measure(const Measure&) = delete;
  Measure& operator=(const Measure&) = delete;

  /// Computes the score for one (real, generated) pair. Const and stateless
  /// between calls: one instance may be evaluated concurrently from several
  /// threads (the harness runs the suite in parallel). Returns a non-OK Status —
  /// never crashes — on malformed input (shape mismatch, empty sets, non-finite
  /// data) or internal failure, so a bench grid can record the cell and continue.
  virtual StatusOr<double> Evaluate(const MeasureContext& ctx) const = 0;

  /// Stable short name used in reports and artifact columns ("DS", "C-FID", ...).
  virtual std::string name() const = 0;

  /// True for the TSTR model-based measures whose value depends on post-hoc network
  /// training (the robustness concern the paper studies in §6.3).
  virtual bool stochastic() const { return false; }
};

/// M1: Discriminative Score — a post-hoc 2-layer LSTM classifier is trained to tell
/// real from generated windows; DS = |0.5 - test accuracy|.
class DiscriminativeScore : public Measure {
 public:
  struct Options {
    int64_t hidden_size = 8;
    int num_layers = 2;
    int epochs = 6;
    int64_t batch_size = 64;
    double learning_rate = 1e-2;
    int64_t max_samples_per_class = 128;
  };
  DiscriminativeScore() : options_(Options()) {}
  explicit DiscriminativeScore(Options options) : options_(options) {}

  StatusOr<double> Evaluate(const MeasureContext& ctx) const override;
  std::string name() const override { return "DS"; }
  bool stochastic() const override { return true; }

 private:
  Options options_;
};

/// Evaluation scheme for the model-based measures: TSTR ("Train on Synthetic, Test
/// on Real", the paper's default, §2.2) or the TRTS alternative it mentions
/// ("Train on Real, Test on Synthetic") which swaps the roles of the two sets.
enum class TstrScheme { kTstr, kTrts };

/// M2: Predictive Score — a 2-layer LSTM forecaster trained on one set and scored by
/// MAE on the other (TSTR by default). kNextStep predicts x_{t+1} from the true
/// history (TimeGAN's protocol); kEntire free-runs the whole horizon after a short
/// warm-up (GT-GAN's protocol, the "PS (entire)" Table 4 row).
class PredictiveScore : public Measure {
 public:
  enum class Mode { kNextStep, kEntire };
  struct Options {
    int64_t hidden_size = 8;
    int num_layers = 2;
    int epochs = 6;
    int64_t batch_size = 64;
    double learning_rate = 1e-2;
    int64_t max_samples = 128;
    TstrScheme scheme = TstrScheme::kTstr;
  };
  explicit PredictiveScore(Mode mode) : mode_(mode), options_(Options()) {}
  PredictiveScore(Mode mode, Options options) : mode_(mode), options_(options) {}

  StatusOr<double> Evaluate(const MeasureContext& ctx) const override;
  std::string name() const override {
    std::string base = mode_ == Mode::kNextStep ? "PS" : "PS(entire)";
    if (options_.scheme == TstrScheme::kTrts) base += "[TRTS]";
    return base;
  }
  bool stochastic() const override { return true; }

 private:
  Mode mode_;
  Options options_;
};

/// M3: Contextual-FID — Frechet distance between Gaussians fit to the real and
/// generated sets in the embedding space of ctx.embedder (ts2vec substitute).
class ContextFid : public Measure {
 public:
  StatusOr<double> Evaluate(const MeasureContext& ctx) const override;
  std::string name() const override { return "C-FID"; }
};

/// M4: Marginal Distribution Difference — per (feature, time step) histograms with
/// bin edges frozen on the real data; mean absolute bin-probability difference.
class MarginalDistributionDifference : public Measure {
 public:
  StatusOr<double> Evaluate(const MeasureContext& ctx) const override;
  std::string name() const override { return "MDD"; }
};

/// M5: AutoCorrelation Difference — mean |ACF_real - ACF_gen| over lags and features,
/// with per-sample ACFs averaged within each set first.
class AutocorrelationDifference : public Measure {
 public:
  StatusOr<double> Evaluate(const MeasureContext& ctx) const override;
  std::string name() const override { return "ACD"; }
};

/// M6: Skewness Difference (Eq. 1), averaged over features.
class SkewnessDifference : public Measure {
 public:
  StatusOr<double> Evaluate(const MeasureContext& ctx) const override;
  std::string name() const override { return "SD"; }
};

/// M7: Kurtosis Difference (Eq. 2), averaged over features.
class KurtosisDifference : public Measure {
 public:
  StatusOr<double> Evaluate(const MeasureContext& ctx) const override;
  std::string name() const override { return "KD"; }
};

/// M11: mean index-paired Euclidean distance.
class EuclideanDistanceMeasure : public Measure {
 public:
  StatusOr<double> Evaluate(const MeasureContext& ctx) const override;
  std::string name() const override { return "ED"; }
};

/// M12: mean index-paired multivariate DTW distance. The default is *dependent*
/// DTW (one shared warping path); kIndependent warps each dimension separately —
/// the alternative strategy from the multi-dimensional-DTW study the paper cites.
class DtwDistanceMeasure : public Measure {
 public:
  enum class Strategy { kDependent, kIndependent };
  explicit DtwDistanceMeasure(int64_t band = -1,
                              Strategy strategy = Strategy::kDependent)
      : band_(band), strategy_(strategy) {}
  StatusOr<double> Evaluate(const MeasureContext& ctx) const override;
  std::string name() const override {
    return strategy_ == Strategy::kDependent ? "DTW" : "DTW(indep)";
  }

 private:
  int64_t band_;
  Strategy strategy_;
};

/// Extension: unbiased RBF-kernel Maximum Mean Discrepancy between flattened real
/// and generated windows — the statistic RGAN's training objective is built on.
/// Not part of the paper's twelve-measure suite (§2.2 drops low-prevalence
/// measures), but exposed for analysis and the ablation benches.
class MmdMeasure : public Measure {
 public:
  explicit MmdMeasure(double gamma = -1.0) : gamma_(gamma) {}
  StatusOr<double> Evaluate(const MeasureContext& ctx) const override;
  std::string name() const override { return "MMD"; }

 private:
  double gamma_;
};

// ---------------------------------------------------------------------------
// The formulas inside MDD, ACD, SD, KD and MMD. Measure::Evaluate above and the
// streaming states (src/streameval) both call these, so each is defined once and
// a stream that replays the same per-series values reproduces the batch bits.
// They open no measure.* span and count nothing.
// ---------------------------------------------------------------------------

/// M4: the empty histogram of one (feature, step) cell, with MDD's bin count and
/// edges frozen on the real values at that cell. Both sides fill a copy of it.
stats::Histogram MddHistogram(const std::vector<double>& real_values);

/// M5's lag rule: ACFs are compared at lags 1..AcdMaxLag(seq_len).
int64_t AcdMaxLag(int64_t seq_len);

/// M5: the ACF of feature `j` of one (l x N) series at lags 0..AcdMaxLag(l).
std::vector<double> SeriesAcf(const Matrix& series, int64_t j);

/// M5 averages the ACFs of at most this many series per set.
inline constexpr int64_t kAcdMaxSeries = 256;

/// M5: the mean of the per-series ACFs acf_at(0), acf_at(1), ... over the first
/// min(count, kAcdMaxSeries) series, summed in series order, then divided.
/// `acf_at(i)` may return the ACF by value (computed) or by reference (cached).
template <typename AcfAt>
std::vector<double> MeanAcf(int64_t count, const AcfAt& acf_at) {
  count = std::min(count, kAcdMaxSeries);
  std::vector<double> mean;
  for (int64_t i = 0; i < count; ++i) {
    const std::vector<double>& acf = acf_at(i);
    mean.resize(acf.size(), 0.0);
    for (size_t k = 0; k < acf.size(); ++k) mean[k] += acf[k];
  }
  for (double& v : mean) v /= static_cast<double>(count);
  return mean;
}

/// M5: MeanAcf of feature `j` over a dataset's samples.
std::vector<double> MeanAcf(const Dataset& ds, int64_t j);

/// M5 for one feature: the mean |real - gen| of two mean ACFs over lags 1..max.
double AcfDifference(const std::vector<double>& real_acf,
                     const std::vector<double>& gen_acf);

/// M6 (Eq. 1) or M7 (Eq. 2) for one feature: the absolute skewness or kurtosis
/// difference between the generated values and `real_m`, the real values'
/// stats::ComputeMoments (which a stream computes once for its reference).
enum class Moment { kSkewness, kKurtosis };
double MomentDifference(Moment moment, const stats::Moments& real_m,
                        const std::vector<double>& gen_values);

/// MMD's input: the first min(|series|, 256) series, flattened into the rows of
/// one matrix (FlattenSeries).
Matrix MmdRows(const std::vector<const Matrix*>& series);

/// The ten scalar measures in the paper's reporting order:
/// DS, PS, PS(entire) [optional], C-FID, MDD, ACD, SD, KD, ED, DTW.
std::vector<std::unique_ptr<Measure>> DefaultMeasureSuite(bool include_ps_entire);

}  // namespace tsg::core

#endif  // TSG_CORE_MEASURES_H_
