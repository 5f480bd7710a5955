#ifndef TSG_STREAMEVAL_DRIFT_H_
#define TSG_STREAMEVAL_DRIFT_H_

#include <cstdint>
#include <map>
#include <string>

namespace tsg::streameval {

/// Page–Hinkley sequential change-point test (DESIGN.md §12). Tracks the
/// cumulative deviation of observations from their running mean, less a slack
/// of 0.05 per observation; from the third observation on, an alarm fires when
/// the deviation climbs more than 0.5 above its historical minimum (rising
/// side) or falls more than 0.5 below its maximum (falling side). The
/// constants live in drift.cc. Deterministic: the alarm sequence is a pure
/// function of the observation sequence, so drift counters land in the
/// reproducible half of a metrics snapshot for a deterministic stream.
class PageHinkley {
 public:
  /// Folds one observation in; returns true when this observation triggers the
  /// alarm. The test self-resets after an alarm so subsequent regimes are
  /// judged fresh.
  bool Observe(double x);

  void Reset();

  int64_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Current rising-side (falling-side) excursion above (below) its extremum.
  double rising() const { return m_up_ - min_up_; }
  double falling() const { return max_dn_ - m_dn_; }

 private:
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m_up_ = 0.0;
  double min_up_ = 0.0;
  double m_dn_ = 0.0;
  double max_dn_ = 0.0;
};

/// Per-measure drift tracking for a stream of window snapshots. The first
/// observation of each measure freezes its baseline; later observations
/// produce a raw delta (value - baseline) and feed that measure's Page–Hinkley
/// test the *normalized* residual, delta / max(|baseline|, 1e-9), so one slack
/// and threshold serve measures whose raw magnitudes differ by orders of
/// magnitude (ED in units of the data vs MDD in probability mass).
class DriftDetector {
 public:
  struct Result {
    double baseline = 0.0;
    double delta = 0.0;  ///< value - baseline (raw measure units).
    bool alarm = false;
  };

  /// Folds one (measure, window value) observation in.
  Result Observe(const std::string& measure, double value);

  int64_t alarms_total() const { return alarms_total_; }

 private:
  struct Entry {
    bool has_baseline = false;
    double baseline = 0.0;
    PageHinkley ph;
  };

  std::map<std::string, Entry> entries_;
  int64_t alarms_total_ = 0;
};

}  // namespace tsg::streameval

#endif  // TSG_STREAMEVAL_DRIFT_H_
