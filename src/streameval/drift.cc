#include "streameval/drift.h"

#include <algorithm>
#include <cmath>

namespace tsg::streameval {
namespace {

constexpr double kSlack = 0.05;     ///< Drifts smaller than this are ignored.
constexpr double kThreshold = 0.5;  ///< Alarm level of the cumulative deviation.
constexpr double kBaselineFloor = 1e-9;  ///< Floor for the baseline normalizer.
constexpr int64_t kMinSamples = 3;  ///< Observations required before an alarm.

}  // namespace

void PageHinkley::Reset() {
  n_ = 0;
  mean_ = 0.0;
  m_up_ = 0.0;
  min_up_ = 0.0;
  m_dn_ = 0.0;
  max_dn_ = 0.0;
}

bool PageHinkley::Observe(double x) {
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
  // Rising side: cumulative (x - mean - slack); a sustained upward shift keeps
  // this climbing away from its minimum.
  m_up_ += x - mean_ - kSlack;
  min_up_ = std::min(min_up_, m_up_);
  // Falling side: cumulative (x - mean + slack) against its maximum.
  m_dn_ += x - mean_ + kSlack;
  max_dn_ = std::max(max_dn_, m_dn_);

  if (n_ < kMinSamples) return false;
  const bool alarm = rising() > kThreshold || falling() > kThreshold;
  if (alarm) Reset();
  return alarm;
}

DriftDetector::Result DriftDetector::Observe(const std::string& measure,
                                             double value) {
  Entry& entry = entries_[measure];
  Result result;
  if (!entry.has_baseline) {
    // First window freezes the baseline; the residual below is then zero, so
    // this observation can never alarm.
    entry.has_baseline = true;
    entry.baseline = value;
  }
  result.baseline = entry.baseline;
  result.delta = value - entry.baseline;
  const double scale = std::max(std::fabs(entry.baseline), kBaselineFloor);
  result.alarm = entry.ph.Observe(result.delta / scale);
  if (result.alarm) ++alarms_total_;
  return result;
}

}  // namespace tsg::streameval
