// Tests for the benchmark's own statistics: the percentile rule, open-loop
// timing, failure accounting, metric names and span self time.

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "report.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(Percentile(Ramp(100), 50), 50);
  EXPECT_EQ(Percentile(Ramp(100), 99), 99);
  EXPECT_EQ(Percentile(Ramp(10), 90), 9);
  EXPECT_EQ(Percentile({5.0, 1.0, 3.0}, 50), 3.0);
  EXPECT_EQ(SamplesBeyond(100, 99), 1);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10);
}

TEST(PercentileTest, TailNeedsTenSamplesBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  Tail tail = HighestSupportedPercentile(Ramp(1000), 99.99);
  EXPECT_EQ(tail.q, 99.0);
  EXPECT_EQ(tail.beyond, 10);
  EXPECT_EQ(tail.n, 1000);
  EXPECT_EQ(tail.value, 990);
  // 999 samples: p99 leaves 9, so the rule falls back to p90.
  tail = HighestSupportedPercentile(Ramp(999), 99.99);
  EXPECT_EQ(tail.q, 90.0);
  EXPECT_GE(tail.beyond, 10);
  // 10000 samples reach p99.9, unless capped at p99.
  EXPECT_EQ(HighestSupportedPercentile(Ramp(10000), 99.99).q, 99.9);
  EXPECT_EQ(HighestSupportedPercentile(Ramp(10000), 99.0).q, 99.0);
  // Too few samples for any tail: the median, with its real support.
  tail = HighestSupportedPercentile(Ramp(12), 99.0);
  EXPECT_EQ(tail.q, 50.0);
  EXPECT_EQ(tail.beyond, 6);
}

TEST(OpenLoopTest, LatencyIsTimedFromTheScheduledSend) {
  OpenLoopRecord r;
  r.scheduled_s = 1.000;
  r.sent_s = 1.250;  // The generator stalled for 250 ms.
  r.done_s = 1.260;
  r.completed = true;
  r.ok = true;
  EXPECT_NEAR(r.latency_ms(), 260.0, 1e-9);
  EXPECT_NEAR(r.lateness_ms(), 250.0, 1e-9);
}

TEST(OpenLoopTest, FailedRequestMissesEveryLatencyTarget) {
  std::vector<OpenLoopRecord> records(100);
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].scheduled_s = static_cast<double>(i);
    records[i].sent_s = records[i].scheduled_s;
    records[i].done_s = records[i].scheduled_s + 0.001;
    records[i].completed = true;
    records[i].ok = true;
  }
  // A refused request (replied, not ok) and a lost one (no reply).
  records[3].ok = false;
  records[7].completed = false;
  records[7].ok = false;
  std::vector<double> lat;
  for (const OpenLoopRecord& r : records) lat.push_back(r.latency_ms());
  EXPECT_TRUE(std::isinf(lat[3]));
  EXPECT_TRUE(std::isinf(lat[7]));
  // Two failures in 100: p99 lands on one of them, the median does not.
  EXPECT_TRUE(std::isinf(Percentile(lat, 99)));
  EXPECT_NEAR(Percentile(lat, 50), 1.0, 1e-6);
}

TEST(OpenLoopTest, PoissonArrivalsAreSeededAndNearTheRate) {
  const std::vector<double> a = PoissonArrivals(7, 250.0, 20.0);
  EXPECT_EQ(a, PoissonArrivals(7, 250.0, 20.0));
  EXPECT_NE(a, PoissonArrivals(8, 250.0, 20.0));
  EXPECT_NEAR(static_cast<double>(a.size()), 5000.0, 5 * std::sqrt(5000.0));
  for (size_t i = 1; i < a.size(); ++i) ASSERT_LT(a[i - 1], a[i]);
  EXPECT_LT(a.back(), 20.0);
}

TEST(MetricNameTest, Validation) {
  EXPECT_TRUE(ValidMetricName("gen_p50_ms"));
  EXPECT_TRUE(ValidMetricName("core.measure_s.C-FID"));
  EXPECT_TRUE(ValidMetricName("9lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_hidden"));
  EXPECT_FALSE(ValidMetricName(".dot"));
  EXPECT_FALSE(ValidMetricName("a b"));
  EXPECT_FALSE(ValidMetricName("a/b"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(MetricNameTest, CatalogNamesAreValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* catalog : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *catalog) {
      EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
      EXPECT_TRUE(seen.insert(spec.name).second) << spec.name;
    }
  }
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans(4);
  spans[0] = {0, -1, -1, "root", 0.0, 10.0};
  spans[1] = {1, 0, -1, "a", 1.0, 4.0};
  spans[2] = {2, 0, -1, "b", 3.0, 6.0};   // Overlaps a: counted once.
  spans[3] = {3, 1, -1, "a.x", 2.0, 3.0};
  const std::vector<double> self = ComputeSelfTimes(spans);
  EXPECT_NEAR(self[0], 5.0, 1e-12);  // 10 - [1, 6].
  EXPECT_NEAR(self[1], 2.0, 1e-12);
  EXPECT_NEAR(self[2], 3.0, 1e-12);
  EXPECT_NEAR(self[3], 1.0, 1e-12);
}

TEST(SpanTest, ScopedSpansNestOnOneThread) {
  SpanLog log;
  {
    ScopedSpan outer(&log, "outer", 7);
    ScopedSpan inner(&log, "inner", 7);
  }
  const std::vector<Span> spans = log.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 7);
  // A null log measures without recording.
  ScopedSpan untraced(nullptr, "x");
  EXPECT_GE(untraced.Elapsed(), 0.0);
  EXPECT_EQ(log.spans().size(), 2u);
}

}  // namespace
}  // namespace perfbench
