// Tests for the streaming evaluation subsystem (DESIGN.md §12): the
// streaming-exact contract (byte equality against the batch measures across
// window sizes, batch slicings, and thread counts), MDD's incremental
// histogram eviction, the Page–Hinkley drift detector, the Welford/Chan
// feature-Gaussian accumulator, and the per-tenant metric export.

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/dataset.h"
#include "data/simulators.h"
#include "obs/metrics.h"
#include "streameval/drift.h"
#include "streameval/online_measures.h"
#include "streameval/stream_evaluator.h"

namespace tsg::streameval {
namespace {

using core::Dataset;

class ScopedParallelism {
 public:
  explicit ScopedParallelism(int n) {
    base::ThreadPool::Global().SetMaxParallelism(n);
  }
  ~ScopedParallelism() { base::ThreadPool::Global().SetMaxParallelism(0); }
};

Dataset SineDataset(int64_t count, uint64_t seed, int64_t l = 12,
                    int64_t n = 2) {
  return Dataset("sine", data::SineBenchmark(count, l, n, seed));
}

std::vector<Matrix> StreamSeries(int64_t count, uint64_t seed, int64_t l = 12,
                                 int64_t n = 2) {
  return data::SineBenchmark(count, l, n, seed);
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Runs `count` series through a fresh evaluator in `chunk`-sized batches and
/// returns the final partial-or-full-window snapshot.
std::map<std::string, double> RunStream(const Dataset& reference,
                                        const std::vector<Matrix>& stream,
                                        int64_t window, size_t chunk,
                                        bool verify_each_batch = false) {
  StreamEvalOptions options;
  options.window = window;
  auto eval = StreamEvaluator::Create(reference, options);
  EXPECT_TRUE(eval.ok()) << eval.status().ToString();
  for (size_t i = 0; i < stream.size(); i += chunk) {
    const size_t take = std::min(chunk, stream.size() - i);
    const std::vector<Matrix> batch(stream.begin() + i,
                                    stream.begin() + i + take);
    const Status status = eval.value()->Update(batch);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (verify_each_batch) {
      const Status exact = eval.value()->VerifyExactAgainstBatch();
      EXPECT_TRUE(exact.ok()) << exact.ToString();
    }
  }
  const auto snapshot = eval.value()->SnapshotNow();
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return snapshot.value();
}

// ---- The streaming-exact contract. ----

// The core guarantee: at every batch boundary, for every window size, the
// streaming snapshot is byte-identical to running the real batch measures on
// the window (VerifyExactAgainstBatch routes through src/core/measures.cc).
// Window sizes are chosen to exercise partial windows, windows smaller than
// the reference (pairing wraps), windows larger than the reference, and a
// reference and window both past the 256-series caps of MmdRows and MeanAcf
// (short, univariate series keep the batch rescans cheap).
TEST(StreamExactTest, MatchesBatchAcrossWindowSizes) {
  const Dataset reference = SineDataset(7, /*seed=*/3);
  const std::vector<Matrix> stream = StreamSeries(40, /*seed=*/91);
  for (const int64_t window : {3, 8, 32}) {
    RunStream(reference, stream, window, /*chunk=*/5,
              /*verify_each_batch=*/true);
  }
  RunStream(SineDataset(300, /*seed=*/5, /*l=*/4, /*n=*/1),
            StreamSeries(330, /*seed=*/93, /*l=*/4, /*n=*/1), /*window=*/300,
            /*chunk=*/110, /*verify_each_batch=*/true);
}

// Snapshots are a pure function of the window contents — how the stream was
// chunked into Update() calls must not change a single bit of any
// streaming-exact measure.
TEST(StreamExactTest, BatchSlicingDoesNotChangeExactMeasures) {
  const Dataset reference = SineDataset(6, /*seed=*/3);
  const std::vector<Matrix> stream = StreamSeries(23, /*seed=*/55);
  const auto whole = RunStream(reference, stream, /*window=*/8, stream.size());
  for (const size_t chunk : {size_t{1}, size_t{3}, size_t{7}}) {
    const auto sliced = RunStream(reference, stream, /*window=*/8, chunk);
    ASSERT_EQ(sliced.size(), whole.size());
    for (const auto& [name, value] : whole) {
      ASSERT_TRUE(sliced.count(name)) << name;
      if (name == "FGD") {
        // Sampled tier: Welford/Chan association varies with chunking.
        EXPECT_NEAR(sliced.at(name), value, 1e-9 * std::abs(value) + 1e-12);
      } else {
        EXPECT_TRUE(BitEqual(sliced.at(name), value))
            << name << ": " << sliced.at(name) << " vs " << value;
      }
    }
  }
}

// The exactness contract holds at any thread count: ParallelSum folds in index
// order regardless of how the map is scheduled, and the streaming snapshot
// re-folds the same per-item values through the same shapes.
TEST(StreamExactTest, ThreadCountDoesNotChangeSnapshots) {
  const Dataset reference = SineDataset(7, /*seed=*/3);
  const std::vector<Matrix> stream = StreamSeries(16, /*seed=*/77);
  std::map<std::string, double> serial;
  {
    ScopedParallelism scoped(1);
    serial = RunStream(reference, stream, /*window=*/8, /*chunk=*/4,
                       /*verify_each_batch=*/true);
  }
  {
    ScopedParallelism scoped(4);
    const auto threaded = RunStream(reference, stream, /*window=*/8,
                                    /*chunk=*/4, /*verify_each_batch=*/true);
    ASSERT_EQ(threaded.size(), serial.size());
    for (const auto& [name, value] : serial) {
      EXPECT_TRUE(BitEqual(threaded.at(name), value)) << name;
    }
  }
}

// Sliding far past the first window exercises MDD's Histogram::Remove path
// (integer counts make eviction lossless) and the cached-value eviction of
// ED/DTW/ACD; VerifyExactAgainstBatch would catch any residue from evicted
// series.
TEST(StreamExactTest, SlidingEvictionStaysExact) {
  const Dataset reference = SineDataset(5, /*seed=*/3);
  const std::vector<Matrix> stream = StreamSeries(30, /*seed=*/13);
  RunStream(reference, stream, /*window=*/4, /*chunk=*/3,
            /*verify_each_batch=*/true);
}

// A partial window (fewer series than `window`) is still snapshottable and
// still exact; with >= 2 series MMD participates too.
TEST(StreamExactTest, PartialWindowSnapshots) {
  const Dataset reference = SineDataset(6, /*seed=*/3);
  StreamEvalOptions options;
  options.window = 8;
  auto eval = StreamEvaluator::Create(reference, options);
  ASSERT_TRUE(eval.ok());
  ASSERT_TRUE(eval.value()->Update(StreamSeries(3, /*seed=*/21)).ok());
  EXPECT_EQ(eval.value()->series_seen(), 3);
  EXPECT_EQ(eval.value()->windows_completed(), 0);
  const auto snapshot = eval.value()->SnapshotNow();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot.value().count("ED"));
  EXPECT_TRUE(snapshot.value().count("MMD"));
  const Status exact = eval.value()->VerifyExactAgainstBatch();
  EXPECT_TRUE(exact.ok()) << exact.ToString();
}

// A single-series window must omit MMD (the unbiased estimator needs two
// samples) instead of aborting inside distance::RbfMmd.
TEST(StreamExactTest, SingleSeriesWindowOmitsMmd) {
  const Dataset reference = SineDataset(6, /*seed=*/3);
  auto eval = StreamEvaluator::Create(reference, StreamEvalOptions());
  ASSERT_TRUE(eval.ok());
  ASSERT_TRUE(eval.value()->Update(StreamSeries(1, /*seed=*/21)).ok());
  const auto snapshot = eval.value()->SnapshotNow();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_FALSE(snapshot.value().count("MMD"));
  EXPECT_TRUE(snapshot.value().count("ED"));
  const Status exact = eval.value()->VerifyExactAgainstBatch();
  EXPECT_TRUE(exact.ok()) << exact.ToString();
}

TEST(StreamEvaluatorTest, CreateValidatesInputs) {
  EXPECT_FALSE(StreamEvaluator::Create(Dataset(), StreamEvalOptions()).ok());
  StreamEvalOptions bad;
  bad.window = 0;
  EXPECT_FALSE(StreamEvaluator::Create(SineDataset(4, 3), bad).ok());
}

TEST(StreamEvaluatorTest, RejectsShapeMismatchedSeries) {
  auto eval = StreamEvaluator::Create(SineDataset(4, 3), StreamEvalOptions());
  ASSERT_TRUE(eval.ok());
  const Status status =
      eval.value()->Update(StreamSeries(1, 5, /*l=*/9, /*n=*/2));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// ---- Metric export. ----

TEST(StreamEvaluatorTest, ExportsPerTenantGaugesAndCounters) {
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  const Dataset reference = SineDataset(6, /*seed=*/3);
  StreamEvalOptions options;
  options.window = 4;
  options.metric_prefix = "stream.test_tenant";
  auto eval = StreamEvaluator::Create(reference, options);
  ASSERT_TRUE(eval.ok());
  ASSERT_TRUE(eval.value()->Update(StreamSeries(8, /*seed=*/33)).ok());

  EXPECT_EQ(eval.value()->windows_completed(), 2);
  EXPECT_EQ(metrics.GetCounter("stream.test_tenant.windows").value(), 2);
  EXPECT_EQ(metrics.GetCounter("stream.test_tenant.series").value(), 8);
  const auto& last = eval.value()->last_snapshot();
  ASSERT_TRUE(last.count("ED"));
  EXPECT_TRUE(BitEqual(metrics.GetGauge("stream.test_tenant.ED").value(),
                       last.at("ED")));
  // The delta gauge mirrors the detector's raw value - baseline delta.
  ASSERT_TRUE(eval.value()->last_deltas().count("DTW"));
  EXPECT_TRUE(BitEqual(metrics.GetGauge("stream.test_tenant.DTW.delta").value(),
                       eval.value()->last_deltas().at("DTW")));
}

// ---- Drift detection. ----

TEST(PageHinkleyTest, SilentOnStationaryNoise) {
  PageHinkley ph;
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(ph.Observe(0.01 * (rng.Uniform() - 0.5)));
  }
}

TEST(PageHinkleyTest, FiresOnUpwardShiftAndSelfResets) {
  PageHinkley ph;
  for (int i = 0; i < 20; ++i) ASSERT_FALSE(ph.Observe(0.0));
  bool fired = false;
  for (int i = 0; i < 50 && !fired; ++i) fired = ph.Observe(2.0);
  EXPECT_TRUE(fired);
  // Self-reset: the new regime becomes the baseline and stays quiet.
  for (int i = 0; i < 5; ++i) ph.Observe(2.0);
  EXPECT_LT(ph.rising(), 0.5);
}

TEST(PageHinkleyTest, TwoSidedCatchesDownwardShift) {
  PageHinkley ph;
  for (int i = 0; i < 20; ++i) ASSERT_FALSE(ph.Observe(1.0));
  bool fired = false;
  for (int i = 0; i < 50 && !fired; ++i) fired = ph.Observe(-1.0);
  EXPECT_TRUE(fired);
}

// A jump at the second observation is far above the threshold, but alarms
// wait for the third observation, which repeats the jump.
TEST(PageHinkleyTest, MinSamplesGatesEarlyAlarms) {
  PageHinkley ph;
  EXPECT_FALSE(ph.Observe(0.0));
  EXPECT_FALSE(ph.Observe(100.0));
  EXPECT_GT(ph.rising(), 0.5);
  EXPECT_TRUE(ph.Observe(100.0));
}

TEST(DriftDetectorTest, AlarmsOnRegimeShiftSilentWhenStationary) {
  DriftDetector stationary;
  for (int i = 0; i < 50; ++i) stationary.Observe("ED", 1.0);
  EXPECT_EQ(stationary.alarms_total(), 0);

  DriftDetector shifting;
  for (int i = 0; i < 10; ++i) shifting.Observe("ED", 1.0);
  for (int i = 0; i < 50; ++i) shifting.Observe("ED", 3.0);
  EXPECT_GT(shifting.alarms_total(), 0);
}

TEST(DriftDetectorTest, BaselineFreezesOnFirstObservation) {
  DriftDetector detector;
  const DriftDetector::Result first = detector.Observe("MDD", 0.4);
  EXPECT_EQ(first.baseline, 0.4);
  EXPECT_EQ(first.delta, 0.0);
  const DriftDetector::Result second = detector.Observe("MDD", 0.5);
  EXPECT_EQ(second.baseline, 0.4);
  EXPECT_NEAR(second.delta, 0.1, 1e-15);
}

// The detector normalizes residuals by the baseline magnitude, so the same
// options catch a 3x shift on a measure living at 1e-3 as readily as at 1e3.
TEST(DriftDetectorTest, NormalizationMakesScalesComparable) {
  for (const double scale : {1e-3, 1.0, 1e3}) {
    DriftDetector detector;
    for (int i = 0; i < 10; ++i) detector.Observe("X", scale);
    for (int i = 0; i < 50; ++i) detector.Observe("X", 3.0 * scale);
    EXPECT_GT(detector.alarms_total(), 0) << scale;
  }
}

// End to end: a stream whose statistics shift mid-way raises a drift alarm
// through the evaluator; a stationary stream does not.
TEST(DriftDetectorTest, EvaluatorAlarmsOnStreamRegimeShift) {
  const Dataset reference = SineDataset(6, /*seed=*/3);
  StreamEvalOptions options;
  options.window = 4;
  auto eval = StreamEvaluator::Create(reference, options);
  ASSERT_TRUE(eval.ok());
  // 10 statistically identical windows settle the baseline: every window holds
  // the same four series, so the per-window measure values do not move.
  const std::vector<Matrix> quiet = StreamSeries(4, /*seed=*/5);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(eval.value()->Update(quiet).ok());
  }
  EXPECT_EQ(eval.value()->alarms_total(), 0);
  // ...then the regime shifts: same generator family, amplitude blown up 50x.
  std::vector<Matrix> shifted = StreamSeries(60, /*seed=*/6);
  for (Matrix& series : shifted) series *= 50.0;
  ASSERT_TRUE(eval.value()->Update(shifted).ok());
  EXPECT_GT(eval.value()->alarms_total(), 0);
}

// ---- The feature-Gaussian (sampled tier). ----

TEST(GaussianStatsTest, ChanMergeMatchesSequentialAccumulation) {
  Rng rng(9);
  const int64_t d = 4;
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 60; ++i) {
    std::vector<double> x(d);
    for (auto& v : x) v = rng.Normal();
    points.push_back(std::move(x));
  }
  GaussianStats all(d), left(d), right(d);
  for (size_t i = 0; i < points.size(); ++i) {
    all.Add(points[i]);
    (i < 25 ? left : right).Add(points[i]);
  }
  left.Merge(right);
  ASSERT_EQ(left.n, all.n);
  for (int64_t j = 0; j < d; ++j) {
    EXPECT_NEAR(left.mean[j], all.mean[j], 1e-12);
  }
  const Matrix cov_merged = left.Covariance();
  const Matrix cov_all = all.Covariance();
  for (int64_t i = 0; i < d; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      EXPECT_NEAR(cov_merged(i, j), cov_all(i, j), 1e-12);
    }
  }
}

TEST(GaussianStatsTest, FrechetOfIdenticalMomentsIsZero) {
  Rng rng(11);
  GaussianStats stats(3);
  for (int i = 0; i < 40; ++i) {
    stats.Add({rng.Normal(), rng.Normal() * 2.0, rng.Normal() - 1.0});
  }
  const auto fid = FrechetFromMoments(stats, stats);
  ASSERT_TRUE(fid.ok()) << fid.status().ToString();
  EXPECT_NEAR(fid.value(), 0.0, 1e-6);
}

TEST(GaussianStatsTest, FrechetRequiresTwoObservations) {
  GaussianStats a(2), b(2);
  a.Add({0.0, 0.0});
  a.Add({1.0, 1.0});
  b.Add({0.0, 0.0});
  EXPECT_FALSE(FrechetFromMoments(a, b).ok());
}

// FGD separates a matched stream from a mismatched one: series drawn from the
// reference family score lower than series with shifted statistics.
TEST(GaussianStatsTest, FeatureGaussianSeparatesMatchedFromShifted) {
  const Dataset reference = SineDataset(24, /*seed=*/3);
  const auto matched =
      RunStream(reference, StreamSeries(24, /*seed=*/41), /*window=*/24, 6);
  std::vector<Matrix> shifted = StreamSeries(24, /*seed=*/41);
  for (Matrix& series : shifted) series *= 10.0;
  StreamEvalOptions options;
  options.window = 24;
  auto eval = StreamEvaluator::Create(reference, options);
  ASSERT_TRUE(eval.ok());
  ASSERT_TRUE(eval.value()->Update(shifted).ok());
  const auto off = eval.value()->SnapshotNow();
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(matched.count("FGD"));
  ASSERT_TRUE(off.value().count("FGD"));
  EXPECT_LT(matched.at("FGD"), off.value().at("FGD"));
}

}  // namespace
}  // namespace tsg::streameval
