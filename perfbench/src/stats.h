#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Statistics the benchmark reports: percentiles under the "ten samples beyond"
// rule, open-loop latency records timed from the scheduled send, failure
// accounting, and metric-name validation. Pure functions, unit-tested in
// perfbench/tests/stats_test.cc.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `values` (any order). `q` is in (0, 100].
/// Non-finite values sort last, so a failed request (recorded as +inf)
/// pushes every percentile above it. Requires a non-empty input.
double Percentile(std::vector<double> values, double q);

/// Number of samples strictly above the nearest-rank position of `q` in a
/// set of `n` samples: n - ceil(q/100 * n).
int64_t SamplesBeyond(int64_t n, double q);

/// A reported tail: which percentile, its value, and the support behind it.
struct Tail {
  double q = 0.0;       ///< Percentile chosen (e.g. 99).
  double value = 0.0;   ///< Its value.
  int64_t n = 0;        ///< Samples in the set.
  int64_t beyond = 0;   ///< Samples above it (>= min_beyond unless n is tiny).
};

/// The highest percentile of the ladder {50, 90, 99, 99.9, 99.99} that still
/// has at least `min_beyond` samples beyond it, capped at `max_q`. Falls back
/// to the median when even p50 lacks that support (n < 2 * min_beyond).
Tail HighestSupportedPercentile(const std::vector<double>& values, double max_q,
                                int64_t min_beyond = 10);

/// One open-loop request: when it was due, when the generator actually sent
/// it, and when its reply arrived (seconds on one steady clock). Latency is
/// timed from the scheduled send, so a generator stall is charged to every
/// request it delayed; lateness is how far the send slipped.
struct OpenLoopRecord {
  double scheduled_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  bool sent = false;       ///< The generator sent it.
  bool completed = false;  ///< A reply arrived.
  bool ok = false;         ///< The reply was a success that passed its checks.

  double latency_ms() const;   ///< +inf unless ok: a failure misses any target.
  double lateness_ms() const;  ///< sent - scheduled.
};

/// Poisson arrival times in [0, duration_s) at `rate_per_s`, from `seed`.
std::vector<double> PoissonArrivals(uint64_t seed, double rate_per_s,
                                    double duration_s);

/// Median of a non-empty sample.
double Median(std::vector<double> values);

/// A metric name: starts with a letter or digit, then up to 63 more letters,
/// digits, '_', '.' or '-'.
bool ValidMetricName(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
