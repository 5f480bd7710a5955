#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ag/ops.h"
#include "base/thread_pool.h"
#include "core/dataset.h"
#include "core/method.h"
#include "methods/factory.h"
#include "nn/optimizer.h"
#include "nn/train.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tsg::obs {
namespace {

/// Every test owns the process-wide registry for its duration: metrics are
/// cumulative, so leftovers from another test would leak into snapshots.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricRegistry::Global().Reset(); }
  void TearDown() override {
    MetricRegistry::Global().Reset();
    base::ThreadPool::Global().SetMaxParallelism(0);
  }
};

TEST_F(ObsTest, CounterCountsExactly) {
  Counter& c = MetricRegistry::Global().GetCounter("test.counter");
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  // Lookups by the same name return the same cell.
  EXPECT_EQ(&MetricRegistry::Global().GetCounter("test.counter"), &c);
}

TEST_F(ObsTest, GaugeKeepsLastWrite) {
  Gauge& g = MetricRegistry::Global().GetGauge("test.gauge");
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST_F(ObsTest, HistogramAggregates) {
  Histogram& h = MetricRegistry::Global().GetHistogram("test.hist");
  h.Record(0.0);
  h.Record(1.0);
  h.Record(-2.0);
  h.Record(0.5);
  h.Record(std::numeric_limits<double>::quiet_NaN());
  h.Record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.negative_count(), 1);
  EXPECT_EQ(h.nonfinite_count(), 2);
  EXPECT_DOUBLE_EQ(h.min(), -2.0);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  EXPECT_DOUBLE_EQ(h.sum(), -0.5);
  // Bucket layout: exact zeros in bucket 0; |v| with floor(log2|v|) = e lands in
  // bucket e + 33.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 33);
  EXPECT_EQ(Histogram::BucketIndex(0.5), 32);
  EXPECT_EQ(Histogram::BucketIndex(-2.0), 34);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(33), 1);
  EXPECT_EQ(h.bucket(32), 1);
  EXPECT_EQ(h.bucket(34), 1);
  // Magnitudes beyond the 2^±32 range clamp into the edge buckets.
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);
  EXPECT_GE(Histogram::BucketIndex(1e-300), 1);
}

TEST_F(ObsTest, SnapshotSplitsCountsFromTimings) {
  MetricRegistry& reg = MetricRegistry::Global();
  reg.GetCounter("a.count").Add(7);
  reg.GetHistogram("a.hist").Record(2.0);
  reg.GetGauge("a.gauge").Set(1.0);
  reg.RecordTimer("a.seconds", 0.25);

  const std::string full = reg.SnapshotJson(true);
  EXPECT_NE(full.find("\"counts\""), std::string::npos);
  EXPECT_NE(full.find("\"timings\""), std::string::npos);
  EXPECT_NE(full.find("\"a.count\":7"), std::string::npos);
  EXPECT_NE(full.find("\"a.gauge\""), std::string::npos);

  const std::string counts_only = reg.SnapshotJson(false);
  EXPECT_EQ(counts_only.find("\"timings\""), std::string::npos);
  EXPECT_EQ(counts_only.find("\"a.gauge\""), std::string::npos);
  EXPECT_EQ(counts_only.find("\"a.seconds\""), std::string::npos);
  // The histogram's floating-point sum is interleaving-dependent and must stay
  // out of the deterministic half.
  EXPECT_EQ(counts_only.find("\"sum\""), std::string::npos);
  EXPECT_NE(counts_only.find("\"a.hist\""), std::string::npos);
}

/// Records the same fixed multiset of values from a parallel loop and asserts
/// the deterministic snapshot half is bit-identical across thread counts.
std::string RecordWorkloadAndSnapshot(int threads) {
  MetricRegistry& reg = MetricRegistry::Global();
  reg.Reset();
  base::ThreadPool::Global().SetMaxParallelism(threads);
  Counter& events = reg.GetCounter("load.events");
  Histogram& values = reg.GetHistogram("load.values");
  base::ParallelFor(0, 4096, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      events.Add();
      values.Record(static_cast<double>(i % 97) - 48.0);
      reg.GetCounter("load.mod8." + std::to_string(i % 8)).Add();
      reg.RecordTimer("load.seconds", 1e-9 * static_cast<double>(i));
    }
  });
  base::ThreadPool::Global().SetMaxParallelism(0);
  return reg.SnapshotJson(false);
}

TEST_F(ObsTest, CountsSnapshotIsThreadCountInvariant) {
  const std::string serial = RecordWorkloadAndSnapshot(1);
  const std::string parallel = RecordWorkloadAndSnapshot(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"load.events\":4096"), std::string::npos);
}

TEST_F(ObsTest, ConcurrentRecordingIsExactUnderStress) {
  MetricRegistry& reg = MetricRegistry::Global();
  base::ThreadPool::Global().SetMaxParallelism(8);
  constexpr int64_t kItems = 20000;
  Counter& c = reg.GetCounter("stress.count");
  Histogram& h = reg.GetHistogram("stress.hist");
  base::ParallelFor(0, kItems, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const ScopedTimer span("stress.span");
      c.Add();
      h.Record(static_cast<double>(i));
      reg.GetGauge("stress.gauge").Set(static_cast<double>(i));
    }
  });
  EXPECT_EQ(c.value(), kItems);
  EXPECT_EQ(h.count(), kItems);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(kItems - 1));
  // Every span occurrence was recorded somewhere in the trace tree (workers
  // start their own stack at the root, so placement varies — the total count
  // does not).
  int64_t spans = 0;
  for (const auto& [path, count] : FlattenTrace(reg.trace_root())) {
    (void)path;
    spans += count;
  }
  EXPECT_EQ(spans, kItems);
}

TEST_F(ObsTest, ScopedTimerBuildsNestedTree) {
  TraceNode root("");
  {
    const ScopedTimer outer("outer", root);
    { const ScopedTimer inner("inner", root); }
    { const ScopedTimer inner("inner", root); }
    const ScopedTimer sibling("sibling", root);
  }
  { const ScopedTimer outer("outer", root); }

  const auto flat = FlattenTrace(root);
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0].first, "outer");
  EXPECT_EQ(flat[0].second, 2);
  EXPECT_EQ(flat[1].first, "outer/inner");
  EXPECT_EQ(flat[1].second, 2);
  // "sibling" opened while "outer" was the current span, so it nests under it
  // even though both were constructed in the same scope.
  EXPECT_EQ(flat[2].first, "outer/sibling");
  EXPECT_EQ(flat[2].second, 1);
}

TEST_F(ObsTest, ElapsedSecondsIsMonotonic) {
  TraceNode root("");
  const ScopedTimer span("t", root);
  const double a = span.ElapsedSeconds();
  const double b = span.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

// ---- GuardedStep telemetry, via a method registered in the factory exactly as
// the bench grid creates them. ----

/// One real optimizer step through GuardedStep per Fit call; loss is the scalar
/// parameter itself, so the value is controlled and finite.
class ObsProbeMethod : public core::TsgMethod {
 public:
  Status Fit(const core::Dataset& train, const core::FitOptions& options) override {
    (void)train;
    (void)options;
    linalg::Matrix init(1, 1);
    init(0, 0) = 0.75;
    ag::Var w = ag::Var::Parameter(init);
    nn::Sgd opt({w}, 0.1);
    const ag::Var loss = ag::Mul(w, ag::Var::Constant(linalg::Matrix::Identity(1)));
    return nn::GuardedStep(opt, loss, 5.0, {"ObsProbe", "main", 12});
  }
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override {
    (void)rng;
    return std::vector<linalg::Matrix>(static_cast<size_t>(count),
                                       linalg::Matrix(2, 1));
  }
  std::string name() const override { return "ObsProbe"; }
};

TEST_F(ObsTest, GuardedStepEmitsTrainingTelemetry) {
  methods::RegisterMethod("ObsProbe",
                          [] { return std::make_unique<ObsProbeMethod>(); });
  auto method = methods::CreateMethod("ObsProbe");
  ASSERT_TRUE(method.ok());
  const core::Dataset train("d", {linalg::Matrix(2, 1)});
  ASSERT_TRUE(method.value()->Fit(train, core::FitOptions()).ok());

  MetricRegistry& reg = MetricRegistry::Global();
  EXPECT_EQ(reg.GetCounter("train.ObsProbe.main.steps").value(), 1);
  Histogram& loss = reg.GetHistogram("train.ObsProbe.main.loss");
  EXPECT_EQ(loss.count(), 1);
  EXPECT_DOUBLE_EQ(loss.min(), 0.75);
  EXPECT_DOUBLE_EQ(loss.max(), 0.75);
  Histogram& grad = reg.GetHistogram("train.ObsProbe.main.grad_norm");
  EXPECT_EQ(grad.count(), 1);
  EXPECT_DOUBLE_EQ(grad.min(), 1.0);  // d(loss)/dw = 1 for loss = w * 1.
  EXPECT_DOUBLE_EQ(reg.GetGauge("train.ObsProbe.main.epoch").value(), 12.0);
  Histogram& step_time = reg.GetTimer("train.ObsProbe.main.step_seconds");
  EXPECT_EQ(step_time.count(), 1);
  EXPECT_GE(step_time.min(), 0.0);
}

TEST_F(ObsTest, GuardedStepCountsNonFiniteLoss) {
  ag::Var w = ag::Var::Parameter(linalg::Matrix(1, 1));
  nn::Sgd opt({w}, 0.1);
  linalg::Matrix poison(1, 1);
  poison(0, 0) = std::numeric_limits<double>::quiet_NaN();
  const ag::Var loss = ag::Mul(w, ag::Var::Constant(poison));
  const Status s =
      nn::GuardedStep(opt, loss, 5.0, {"ObsProbe", "main", 3});
  EXPECT_FALSE(s.ok());
  MetricRegistry& reg = MetricRegistry::Global();
  EXPECT_EQ(reg.GetCounter("train.ObsProbe.main.nonfinite_loss").value(), 1);
  EXPECT_EQ(reg.GetCounter("train.ObsProbe.main.steps").value(), 0);
}

}  // namespace
}  // namespace tsg::obs
