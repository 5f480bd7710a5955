#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/check.h"
#include "base/rng.h"

namespace perfbench {

namespace {

/// Zero-based index of the nearest-rank percentile `q` in `n` sorted samples.
int64_t RankIndex(int64_t n, double q) {
  // The tolerance keeps a rank that is whole on paper (p99.9 of 10000) from
  // rounding up through the binary representation of q.
  const double exact = q / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<int64_t>(std::ceil(exact - 1e-9 * std::max(1.0, exact)));
  return std::clamp<int64_t>(rank, 1, n) - 1;
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  TSG_CHECK(!values.empty()) << "percentile of an empty sample";
  const int64_t n = static_cast<int64_t>(values.size());
  const int64_t k = RankIndex(n, q);
  // Non-finite last: nth_element's default ordering treats +inf correctly but
  // NaN would break it, and no sample here is NaN by construction.
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[static_cast<size_t>(k)];
}

int64_t SamplesBeyond(int64_t n, double q) {
  if (n <= 0) return 0;
  return n - (RankIndex(n, q) + 1);
}

Tail HighestSupportedPercentile(const std::vector<double>& values, double max_q,
                                int64_t min_beyond) {
  static constexpr double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};
  const int64_t n = static_cast<int64_t>(values.size());
  Tail tail;
  tail.n = n;
  tail.q = 50.0;
  for (double q : kLadder) {
    if (q > max_q) break;
    if (SamplesBeyond(n, q) >= min_beyond) tail.q = q;
  }
  tail.beyond = SamplesBeyond(n, tail.q);
  tail.value = n > 0 ? Percentile(values, tail.q) : 0.0;
  return tail;
}

double OpenLoopRecord::latency_ms() const {
  if (!ok) return std::numeric_limits<double>::infinity();
  return (done_s - scheduled_s) * 1e3;
}

double OpenLoopRecord::lateness_ms() const { return (sent_s - scheduled_s) * 1e3; }

std::vector<double> PoissonArrivals(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> out;
  tsg::Rng rng(seed);
  double t = 0.0;
  for (;;) {
    // Exponential inter-arrival gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.Uniform()) / rate_per_s;
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    if (alnum) continue;
    if (i == 0 || (c != '_' && c != '.' && c != '-')) return false;
  }
  return true;
}

}  // namespace perfbench
