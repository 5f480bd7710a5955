#include "core/measures.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ag/ops.h"
#include "ag/tape.h"
#include "base/check.h"
#include "base/thread_pool.h"
#include "distance/distance.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"
#include "nn/train.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "signal/acf.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"

namespace tsg::core {
namespace {

using ag::Var;

/// Per-measure observability, declared first in every Evaluate: a trace span
/// plus an evaluation counter and a wall-time histogram under
/// "measure.<name>" — the per-measure cost breakdown behind the paper's §6.3
/// efficiency analysis.
class MeasureSpan {
 public:
  explicit MeasureSpan(const Measure& measure)
      : name_("measure." + measure.name()), span_(name_) {}
  ~MeasureSpan() {
    obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
    metrics.GetCounter(name_ + ".evaluations").Add();
    metrics.RecordTimer(name_ + ".seconds", span_.ElapsedSeconds());
  }
  MeasureSpan(const MeasureSpan&) = delete;
  MeasureSpan& operator=(const MeasureSpan&) = delete;

 private:
  std::string name_;
  obs::ScopedTimer span_;
};

Status ValidateContext(const MeasureContext& ctx) {
  if (ctx.real == nullptr || ctx.generated == nullptr) {
    return Status::InvalidArgument("measure context missing real/generated set");
  }
  if (ctx.real->empty() || ctx.generated->empty()) {
    return Status::InvalidArgument("measure context has an empty dataset");
  }
  if (ctx.real->num_features() != ctx.generated->num_features() ||
      ctx.real->seq_len() != ctx.generated->seq_len()) {
    auto shape = [](const Dataset& ds) {
      return std::to_string(ds.seq_len()) + "x" + std::to_string(ds.num_features());
    };
    return Status::InvalidArgument("real/generated shape mismatch: real " +
                                   shape(*ctx.real) + " vs generated " +
                                   shape(*ctx.generated));
  }
  return Status::Ok();
}

/// SD / KD over a validated context: MomentDifference per feature, averaged.
double MeanMomentDifference(Moment moment, const MeasureContext& ctx) {
  const int64_t n = ctx.real->num_features();
  const double total = base::ParallelSum(n, 1, [&](int64_t j) {
    return MomentDifference(moment, stats::ComputeMoments(ctx.real->FeatureValues(j)),
                            ctx.generated->FeatureValues(j));
  });
  return total / static_cast<double>(n);
}

}  // namespace

stats::Histogram MddHistogram(const std::vector<double>& real_values) {
  return stats::Histogram::FitRange(real_values, /*num_bins=*/20);
}

int64_t AcdMaxLag(int64_t seq_len) { return std::min<int64_t>(seq_len - 1, 32); }

std::vector<double> SeriesAcf(const Matrix& series, int64_t j) {
  const int64_t l = series.rows();
  std::vector<double> col(static_cast<size_t>(l));
  for (int64_t t = 0; t < l; ++t) col[static_cast<size_t>(t)] = series(t, j);
  return signal::Autocorrelation(col, AcdMaxLag(l));
}

std::vector<double> MeanAcf(const Dataset& ds, int64_t j) {
  return MeanAcf(ds.num_samples(),
                 [&](int64_t i) { return SeriesAcf(ds.sample(i), j); });
}

double AcfDifference(const std::vector<double>& real_acf,
                     const std::vector<double>& gen_acf) {
  const int64_t max_lag = static_cast<int64_t>(real_acf.size()) - 1;
  double s = 0.0;
  for (int64_t k = 1; k <= max_lag; ++k) {
    s += std::fabs(real_acf[static_cast<size_t>(k)] - gen_acf[static_cast<size_t>(k)]);
  }
  return s / static_cast<double>(max_lag);
}

double MomentDifference(Moment moment, const stats::Moments& real_m,
                        const std::vector<double>& gen_values) {
  const stats::Moments gen_m = stats::ComputeMoments(gen_values);
  return moment == Moment::kSkewness ? std::fabs(gen_m.skewness - real_m.skewness)
                                     : std::fabs(gen_m.kurtosis - real_m.kurtosis);
}

Matrix MmdRows(const std::vector<const Matrix*>& series) {
  const int64_t rows = std::min<int64_t>(static_cast<int64_t>(series.size()), 256);
  return FlattenSeries(
      std::vector<const Matrix*>(series.begin(), series.begin() + rows));
}

StatusOr<double> DiscriminativeScore::Evaluate(const MeasureContext& ctx) const {
  const MeasureSpan span(*this);
  TSG_RETURN_IF_ERROR(ValidateContext(ctx));
  Rng rng(ctx.seed ^ 0xD15C);
  const int64_t per_class = std::min({options_.max_samples_per_class,
                                      ctx.real->num_samples(),
                                      ctx.generated->num_samples()});
  // Pool: real labeled 1, generated labeled 0.
  std::vector<const Matrix*> pool;
  std::vector<double> labels;
  for (int64_t i = 0; i < per_class; ++i) {
    pool.push_back(&ctx.real->sample(i));
    labels.push_back(1.0);
    pool.push_back(&ctx.generated->sample(i));
    labels.push_back(0.0);
  }
  const int64_t total = static_cast<int64_t>(pool.size());
  std::vector<int64_t> perm = rng.Permutation(total);
  const int64_t train_count = total * 4 / 5;

  const int64_t n = ctx.real->num_features();
  nn::LstmStack lstm(n, options_.hidden_size, options_.num_layers, rng);
  nn::Dense head(options_.hidden_size, 1, rng);
  nn::Adam opt(nn::CollectParameters({&lstm, &head}), options_.learning_rate);

  auto forward = [&](const std::vector<int64_t>& idx) {
    std::vector<Var> finals;
    lstm.Forward(nn::SequenceBatch(pool, idx), &finals);
    return head.Forward(finals.back());
  };

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    std::vector<int64_t> order(perm.begin(), perm.begin() + train_count);
    // Re-shuffle the training portion each epoch.
    for (int64_t i = train_count - 1; i > 0; --i) {
      std::swap(order[static_cast<size_t>(i)],
                order[static_cast<size_t>(rng.UniformInt(i + 1))]);
    }
    for (int64_t start = 0; start < train_count; start += options_.batch_size) {
      const ag::StepScope step_scope;
      const int64_t end = std::min(start + options_.batch_size, train_count);
      const std::vector<int64_t> idx(order.begin() + start, order.begin() + end);
      Matrix target(end - start, 1);
      for (int64_t b = 0; b < end - start; ++b) {
        target(b, 0) = labels[static_cast<size_t>(idx[static_cast<size_t>(b)])];
      }
      TSG_RETURN_IF_ERROR(nn::GuardedStep(
          opt, ag::BceWithLogits(forward(idx), Var::Constant(target)), 5.0,
          {"DS", "classifier", epoch}));
    }
  }

  // Held-out accuracy.
  const std::vector<int64_t> test_idx(perm.begin() + train_count, perm.end());
  if (test_idx.empty()) return 0.5;
  const Var logits = forward(test_idx);
  int64_t correct = 0;
  for (int64_t b = 0; b < logits.rows(); ++b) {
    const double pred = logits.value()(b, 0) > 0 ? 1.0 : 0.0;
    correct += pred == labels[static_cast<size_t>(test_idx[static_cast<size_t>(b)])];
  }
  const double acc =
      static_cast<double>(correct) / static_cast<double>(test_idx.size());
  return std::fabs(0.5 - acc);
}

StatusOr<double> PredictiveScore::Evaluate(const MeasureContext& ctx) const {
  const MeasureSpan span(*this);
  TSG_RETURN_IF_ERROR(ValidateContext(ctx));
  Rng rng(ctx.seed ^ 0x9595);
  const int64_t n = ctx.real->num_features();
  const int64_t l = ctx.real->seq_len();
  if (l < 2) {
    return Status::InvalidArgument("PS requires seq_len >= 2, got " +
                                   std::to_string(l));
  }

  // TSTR: train on synthetic (TRTS swaps the roles of the two sets).
  const Dataset& train_source =
      options_.scheme == TstrScheme::kTstr ? *ctx.generated : *ctx.real;
  nn::LstmStack lstm(n, options_.hidden_size, options_.num_layers, rng);
  nn::Dense head(options_.hidden_size, n, rng);
  nn::Adam opt(nn::CollectParameters({&lstm, &head}), options_.learning_rate);

  const int64_t train_total =
      std::min(options_.max_samples, train_source.num_samples());
  std::vector<int64_t> idx;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    nn::MiniBatcher batcher(train_total, options_.batch_size, rng);
    while (batcher.Next(&idx)) {
      const ag::StepScope step_scope;
      const std::vector<Var> steps = nn::SequenceBatch(train_source.samples(), idx);
      const std::vector<Var> inputs(steps.begin(), steps.end() - 1);
      const std::vector<Var> outputs = lstm.Forward(inputs);
      Var loss = ag::MseLoss(head.Forward(outputs[0]), steps[1]);
      for (int64_t t = 1; t < l - 1; ++t) {
        loss = loss + ag::MseLoss(head.Forward(outputs[static_cast<size_t>(t)]),
                                  steps[static_cast<size_t>(t + 1)]);
      }
      TSG_RETURN_IF_ERROR(nn::GuardedStep(
          opt, ag::ScalarMul(loss, 1.0 / static_cast<double>(l - 1)), 5.0,
          {"PS", "forecaster", epoch}));
    }
  }

  // ...test on the other side. Under TSTR prefer the held-out real split.
  const Dataset& test_set =
      options_.scheme == TstrScheme::kTrts
          ? *ctx.generated
          : ((ctx.real_test != nullptr && !ctx.real_test->empty()) ? *ctx.real_test
                                                                   : *ctx.real);
  std::vector<int64_t> all_idx(
      static_cast<size_t>(std::min(options_.max_samples, test_set.num_samples())));
  std::iota(all_idx.begin(), all_idx.end(), int64_t{0});
  const std::vector<Var> steps = nn::SequenceBatch(test_set.samples(), all_idx);

  double abs_err = 0.0;
  int64_t err_count = 0;
  if (mode_ == Mode::kNextStep) {
    const std::vector<Var> inputs(steps.begin(), steps.end() - 1);
    const std::vector<Var> outputs = lstm.Forward(inputs);
    for (int64_t t = 0; t < l - 1; ++t) {
      const Var pred = head.Forward(outputs[static_cast<size_t>(t)]);
      const Matrix& truth = steps[static_cast<size_t>(t + 1)].value();
      for (int64_t i = 0; i < truth.size(); ++i) {
        abs_err += std::fabs(pred.value()[i] - truth[i]);
        ++err_count;
      }
    }
  } else {
    // Free-run after a warm-up prefix of true values.
    const int64_t warm = std::max<int64_t>(1, l / 4);
    std::vector<Var> fed;
    std::vector<Var> preds;
    Var current = steps[0];
    for (int64_t t = 0; t < l - 1; ++t) {
      fed.push_back(current);
      const std::vector<Var> outputs = lstm.Forward(fed);
      const Var pred = head.Forward(outputs.back());
      preds.push_back(pred);
      current = (t + 1 < warm) ? steps[static_cast<size_t>(t + 1)] : pred;
    }
    for (int64_t t = warm; t < l; ++t) {
      const Matrix& truth = steps[static_cast<size_t>(t)].value();
      const Matrix& pred = preds[static_cast<size_t>(t - 1)].value();
      for (int64_t i = 0; i < truth.size(); ++i) {
        abs_err += std::fabs(pred[i] - truth[i]);
        ++err_count;
      }
    }
  }
  return err_count == 0 ? 0.0 : abs_err / static_cast<double>(err_count);
}

StatusOr<double> ContextFid::Evaluate(const MeasureContext& ctx) const {
  const MeasureSpan span(*this);
  TSG_RETURN_IF_ERROR(ValidateContext(ctx));
  if (ctx.embedder == nullptr) {
    return Status::FailedPrecondition("C-FID requires a fitted embedder");
  }
  const int64_t cap = 512;
  const Matrix real_emb = ctx.embedder->Embed(
      ctx.real->Head(cap).samples());
  const Matrix gen_emb = ctx.embedder->Embed(ctx.generated->Head(cap).samples());
  // Degenerate covariances (e.g. constant generated data) surface as Status.
  return distance::FrechetDistance(real_emb, gen_emb);
}

StatusOr<double> MarginalDistributionDifference::Evaluate(const MeasureContext& ctx) const {
  const MeasureSpan span(*this);
  TSG_RETURN_IF_ERROR(ValidateContext(ctx));
  const int64_t n = ctx.real->num_features();
  const int64_t l = ctx.real->seq_len();
  // One task per (feature, step) histogram cell, summed in cell index order.
  const double total = base::ParallelSum(n * l, 8, [&](int64_t cell) {
    const int64_t j = cell / l;
    const int64_t t = cell % l;
    const std::vector<double> real_vals = ctx.real->FeatureValuesAt(j, t);
    stats::Histogram real_hist = MddHistogram(real_vals);
    stats::Histogram gen_hist = real_hist;
    real_hist.AddAll(real_vals);
    gen_hist.AddAll(ctx.generated->FeatureValuesAt(j, t));
    return real_hist.MeanAbsDiff(gen_hist);
  });
  return total / static_cast<double>(n * l);
}

StatusOr<double> AutocorrelationDifference::Evaluate(const MeasureContext& ctx) const {
  const MeasureSpan span(*this);
  TSG_RETURN_IF_ERROR(ValidateContext(ctx));
  const int64_t n = ctx.real->num_features();
  // Per-feature ACF accumulation is independent across features.
  const double total = base::ParallelSum(n, 1, [&](int64_t j) {
    return AcfDifference(MeanAcf(*ctx.real, j), MeanAcf(*ctx.generated, j));
  });
  return total / static_cast<double>(n);
}

StatusOr<double> SkewnessDifference::Evaluate(const MeasureContext& ctx) const {
  const MeasureSpan span(*this);
  TSG_RETURN_IF_ERROR(ValidateContext(ctx));
  return MeanMomentDifference(Moment::kSkewness, ctx);
}

StatusOr<double> KurtosisDifference::Evaluate(const MeasureContext& ctx) const {
  const MeasureSpan span(*this);
  TSG_RETURN_IF_ERROR(ValidateContext(ctx));
  return MeanMomentDifference(Moment::kKurtosis, ctx);
}

StatusOr<double> EuclideanDistanceMeasure::Evaluate(const MeasureContext& ctx) const {
  const MeasureSpan span(*this);
  TSG_RETURN_IF_ERROR(ValidateContext(ctx));
  const int64_t pairs =
      std::min(ctx.real->num_samples(), ctx.generated->num_samples());
  // Index-paired distances are computed in parallel and summed in pair order.
  const double total = base::ParallelSum(pairs, 16, [&](int64_t i) {
    return distance::EuclideanDistance(ctx.real->sample(i), ctx.generated->sample(i));
  });
  return total / static_cast<double>(pairs);
}

StatusOr<double> DtwDistanceMeasure::Evaluate(const MeasureContext& ctx) const {
  const MeasureSpan span(*this);
  TSG_RETURN_IF_ERROR(ValidateContext(ctx));
  const int64_t pairs =
      std::min(ctx.real->num_samples(), ctx.generated->num_samples());
  // Each pair runs a full DP table — the most expensive per-item loop in the suite.
  const double total = base::ParallelSum(pairs, 1, [&](int64_t i) {
    return strategy_ == Strategy::kDependent
               ? distance::DtwDistance(ctx.real->sample(i), ctx.generated->sample(i),
                                       band_)
               : distance::DtwIndependent(ctx.real->sample(i),
                                          ctx.generated->sample(i), band_);
  });
  return total / static_cast<double>(pairs);
}

StatusOr<double> MmdMeasure::Evaluate(const MeasureContext& ctx) const {
  const MeasureSpan span(*this);
  TSG_RETURN_IF_ERROR(ValidateContext(ctx));
  return distance::RbfMmd(MmdRows(ctx.real->SampleRefs()),
                          MmdRows(ctx.generated->SampleRefs()), gamma_);
}

std::vector<std::unique_ptr<Measure>> DefaultMeasureSuite(bool include_ps_entire) {
  std::vector<std::unique_ptr<Measure>> suite;
  suite.push_back(std::make_unique<DiscriminativeScore>());
  suite.push_back(std::make_unique<PredictiveScore>(PredictiveScore::Mode::kNextStep));
  if (include_ps_entire) {
    suite.push_back(std::make_unique<PredictiveScore>(PredictiveScore::Mode::kEntire));
  }
  suite.push_back(std::make_unique<ContextFid>());
  suite.push_back(std::make_unique<MarginalDistributionDifference>());
  suite.push_back(std::make_unique<AutocorrelationDifference>());
  suite.push_back(std::make_unique<SkewnessDifference>());
  suite.push_back(std::make_unique<KurtosisDifference>());
  suite.push_back(std::make_unique<EuclideanDistanceMeasure>());
  suite.push_back(std::make_unique<DtwDistanceMeasure>());
  return suite;
}

}  // namespace tsg::core
