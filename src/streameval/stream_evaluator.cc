#include "streameval/stream_evaluator.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/check.h"
#include "core/measures.h"
#include "obs/metrics.h"

namespace tsg::streameval {
namespace {

/// Bitwise double equality — the comparison the stream-vs-batch contract is
/// stated in. Treats identical NaN patterns as equal, unlike operator==.
bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

StreamEvaluator::StreamEvaluator(
    std::shared_ptr<const core::Dataset> reference, StreamEvalOptions options)
    : reference_(std::move(reference)), options_(std::move(options)) {
  states_.push_back(std::make_unique<OnlineEuclidean>(reference_));
  states_.push_back(std::make_unique<OnlineDtw>(reference_));
  states_.push_back(std::make_unique<OnlineMdd>(reference_));
  states_.push_back(std::make_unique<OnlineAcd>(reference_));
  states_.push_back(std::make_unique<OnlineMomentsDiff>(
      reference_, OnlineMomentsDiff::Kind::kSkewness));
  states_.push_back(std::make_unique<OnlineMomentsDiff>(
      reference_, OnlineMomentsDiff::Kind::kKurtosis));
  states_.push_back(std::make_unique<OnlineMmd>(reference_));
  states_.push_back(std::make_unique<OnlineFeatureGaussian>(reference_));
}

StatusOr<std::unique_ptr<StreamEvaluator>> StreamEvaluator::Create(
    const core::Dataset& reference, StreamEvalOptions options) {
  if (reference.empty()) {
    return Status::InvalidArgument("stream evaluator needs a non-empty reference");
  }
  if (options.window <= 0) {
    return Status::InvalidArgument("stream window must be positive, got " +
                                   std::to_string(options.window));
  }
  auto ref_copy = std::make_shared<const core::Dataset>(reference);
  return std::unique_ptr<StreamEvaluator>(
      new StreamEvaluator(std::move(ref_copy), std::move(options)));
}

Status StreamEvaluator::Update(const std::vector<Matrix>& batch) {
  const int64_t l = reference_->seq_len();
  const int64_t n = reference_->num_features();
  for (const Matrix& series : batch) {
    if (series.rows() != l || series.cols() != n) {
      return Status::InvalidArgument(
          "stream series shape " + std::to_string(series.rows()) + "x" +
          std::to_string(series.cols()) + " does not match reference " +
          std::to_string(l) + "x" + std::to_string(n));
    }
  }

  size_t next = 0;
  while (next < batch.size()) {
    // Slice the batch at window boundaries so a snapshot happens at every
    // multiple of `window` even when one Update spans several windows.
    const int64_t to_boundary =
        options_.window - (series_seen_ % options_.window);
    const size_t take =
        std::min(batch.size() - next, static_cast<size_t>(to_boundary));
    const size_t first_new = window_.size();
    for (size_t k = 0; k < take; ++k) {
      window_.push_back(WindowItem{batch[next + k], series_seen_ + static_cast<int64_t>(k)});
    }
    // Deque push_back/pop_front never move surviving elements, so these
    // pointers stay valid for the states' Update call.
    std::vector<const WindowItem*> fresh;
    fresh.reserve(take);
    for (size_t w = first_new; w < window_.size(); ++w) {
      fresh.push_back(&window_[w]);
    }
    for (auto& state : states_) {
      TSG_RETURN_IF_ERROR(state->Update(fresh));
    }
    series_seen_ += static_cast<int64_t>(take);
    while (static_cast<int64_t>(window_.size()) > options_.window) {
      for (auto& state : states_) {
        TSG_RETURN_IF_ERROR(state->Evict(window_.front()));
      }
      window_.pop_front();
    }
    if (series_seen_ % options_.window == 0) {
      TSG_RETURN_IF_ERROR(TakeSnapshot());
    }
    next += take;
  }
  return Status::Ok();
}

StatusOr<std::map<std::string, double>> StreamEvaluator::SnapshotNow() const {
  if (window_.empty()) {
    return Status::FailedPrecondition("stream window is empty");
  }
  std::map<std::string, double> out;
  for (const auto& state : states_) {
    const StatusOr<double> value = state->Snapshot(window_);
    if (value.ok()) out[state->name()] = value.value();
  }
  return out;
}

Status StreamEvaluator::TakeSnapshot() {
  ++windows_completed_;
  last_snapshot_.clear();
  last_deltas_.clear();

  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  const bool export_metrics = !options_.metric_prefix.empty();
  int64_t errors = 0;
  for (const auto& state : states_) {
    const StatusOr<double> value = state->Snapshot(window_);
    if (!value.ok()) {
      ++errors;
      continue;
    }
    const std::string& name = state->name();
    last_snapshot_[name] = value.value();
    const DriftDetector::Result drift = drift_.Observe(name, value.value());
    last_deltas_[name] = drift.delta;
    if (export_metrics) {
      const std::string base = options_.metric_prefix + "." + name;
      metrics.GetGauge(base).Set(value.value());
      metrics.GetGauge(base + ".delta").Set(drift.delta);
      if (drift.alarm) metrics.GetCounter(base + ".alarms").Add();
    }
  }
  if (export_metrics) {
    metrics.GetCounter(options_.metric_prefix + ".windows").Add();
    metrics.GetCounter(options_.metric_prefix + ".series")
        .Add(static_cast<int64_t>(window_.size()));
    const int64_t new_alarms = drift_.alarms_total() - exported_alarms_;
    if (new_alarms > 0) {
      metrics.GetCounter(options_.metric_prefix + ".alarms").Add(new_alarms);
    }
    exported_alarms_ = drift_.alarms_total();
    if (errors > 0) {
      metrics.GetCounter(options_.metric_prefix + ".errors").Add(errors);
    }
  }
  return Status::Ok();
}

core::Dataset StreamEvaluator::WindowDataset() const {
  std::vector<Matrix> samples;
  samples.reserve(window_.size());
  for (const WindowItem& item : window_) samples.push_back(item.series);
  return core::Dataset("stream_window", std::move(samples));
}

Status StreamEvaluator::VerifyExactAgainstBatch() const {
  if (window_.empty()) {
    return Status::FailedPrecondition("stream window is empty");
  }
  const core::Dataset window_ds = WindowDataset();
  // The index-paired distances compare against the reference rotated to the
  // window's stream positions; the distributional measures compare against the
  // whole reference, exactly as a batch evaluation would.
  std::vector<int64_t> pair_idx;
  pair_idx.reserve(window_.size());
  for (const WindowItem& item : window_) {
    pair_idx.push_back(item.position % reference_->num_samples());
  }
  const core::Dataset paired_ref = reference_->Select(pair_idx);

  core::MeasureContext paired_ctx;
  paired_ctx.real = &paired_ref;
  paired_ctx.generated = &window_ds;
  core::MeasureContext full_ctx;
  full_ctx.real = reference_.get();
  full_ctx.generated = &window_ds;

  StatusOr<std::map<std::string, double>> snapshot_or = SnapshotNow();
  if (!snapshot_or.ok()) return snapshot_or.status();
  const std::map<std::string, double>& snapshot = snapshot_or.value();

  auto check = [&](const core::Measure& measure,
                   const core::MeasureContext& ctx) -> Status {
    const StatusOr<double> batch = measure.Evaluate(ctx);
    const auto it = snapshot.find(measure.name());
    if (!batch.ok()) {
      // The streaming state must have skipped the measure for the same reason
      // (e.g. MMD's 2-series minimum).
      if (it != snapshot.end()) {
        return Status::Internal("stream " + measure.name() +
                                " produced a value where batch failed: " +
                                batch.status().ToString());
      }
      return Status::Ok();
    }
    if (it == snapshot.end()) {
      return Status::Internal("stream snapshot is missing " + measure.name());
    }
    if (!BitEqual(batch.value(), it->second)) {
      return Status::Internal(
          "stream " + measure.name() + " diverged from batch: stream " +
          std::to_string(it->second) + " vs batch " +
          std::to_string(batch.value()));
    }
    return Status::Ok();
  };

  TSG_RETURN_IF_ERROR(check(core::EuclideanDistanceMeasure(), paired_ctx));
  TSG_RETURN_IF_ERROR(check(core::DtwDistanceMeasure(), paired_ctx));
  TSG_RETURN_IF_ERROR(check(core::MarginalDistributionDifference(), full_ctx));
  TSG_RETURN_IF_ERROR(check(core::AutocorrelationDifference(), full_ctx));
  TSG_RETURN_IF_ERROR(check(core::SkewnessDifference(), full_ctx));
  TSG_RETURN_IF_ERROR(check(core::KurtosisDifference(), full_ctx));
  if (window_.size() >= 2 && reference_->num_samples() >= 2) {
    TSG_RETURN_IF_ERROR(check(core::MmdMeasure(), full_ctx));
  }
  return Status::Ok();
}

}  // namespace tsg::streameval
