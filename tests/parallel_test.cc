// Tests for the parallel execution layer: ThreadPool/ParallelFor semantics
// (coverage, grain edge cases, nesting, exceptions, ordered reductions) and the
// determinism contract — every parallelized kernel and every measure in
// DefaultMeasureSuite must produce byte-identical results whether the pool runs
// 1-wide or 4-wide (the in-process equivalent of TSG_THREADS=1 vs TSG_THREADS=4,
// which seeds the pool at startup).

#include "base/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "core/harness.h"
#include "core/measures.h"
#include "data/simulators.h"
#include "distance/distance.h"
#include "embed/embedder.h"
#include "embed/tsne.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"

namespace tsg {
namespace {

using base::Lookahead;
using base::ParallelFor;
using base::ParallelMap;
using base::ParallelMapReduce;
using base::ParallelSum;
using base::ThreadPool;
using linalg::Matrix;

/// Forces the global pool to `n`-way execution for the duration of a scope.
class ScopedParallelism {
 public:
  explicit ScopedParallelism(int n) { ThreadPool::Global().SetMaxParallelism(n); }
  ~ScopedParallelism() { ThreadPool::Global().SetMaxParallelism(0); }
};

TEST(ThreadPoolTest, ConstructorClampsAndReportsParallelism) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.max_parallelism(), 3);
  ThreadPool clamped(-2);
  EXPECT_EQ(clamped.max_parallelism(), 1);
}

TEST(ThreadPoolTest, SetMaxParallelismGrowsAndRestores) {
  ThreadPool pool(1);
  pool.SetMaxParallelism(4);
  EXPECT_EQ(pool.max_parallelism(), 4);
  pool.SetMaxParallelism(0);  // Restores the configured size.
  EXPECT_EQ(pool.max_parallelism(), 1);
}

/// Polls `done` for up to ten seconds; false on timeout.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Holds one worker of a pool until destroyed, so tasks queued behind it wait.
class WorkerBlocker {
 public:
  explicit WorkerBlocker(ThreadPool& pool) : gate_(std::make_shared<Gate>()) {
    pool.Schedule([gate = gate_] {
      std::unique_lock<std::mutex> lock(gate->mu);
      gate->held = true;
      gate->cv.notify_all();
      gate->cv.wait(lock, [&gate] { return gate->released; });
    });
    std::unique_lock<std::mutex> lock(gate_->mu);
    gate_->cv.wait(lock, [this] { return gate_->held; });
  }
  ~WorkerBlocker() {
    std::lock_guard<std::mutex> lock(gate_->mu);
    gate_->released = true;
    gate_->cv.notify_all();
  }
  WorkerBlocker(const WorkerBlocker&) = delete;
  WorkerBlocker& operator=(const WorkerBlocker&) = delete;

 private:
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool held = false;
    bool released = false;
  };
  std::shared_ptr<Gate> gate_;
};

TEST(ThreadPoolTest, WorkerCountFollowsWidthAndScheduleWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 0);
  pool.EnsureScheduleWorkers(2);
  EXPECT_EQ(pool.worker_count(), 2);
  EXPECT_EQ(ThreadPool(3).worker_count(), 2);
}

TEST(LookaheadTest, RunsInlineOnAPoolWithoutWorkers) {
  ThreadPool pool(1);
  ASSERT_EQ(pool.worker_count(), 0);
  std::thread::id ran_on;
  Lookahead<int> next(pool, [&ran_on] {
    ran_on = std::this_thread::get_id();
    return 7;
  });
  EXPECT_EQ(pool.stats().tasks_scheduled, 0);
  EXPECT_EQ(next.Take(), 7);
  EXPECT_TRUE(next.ran_inline());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(pool.stats().tasks_scheduled, 0);
}

TEST(LookaheadTest, TakeRunsTheTaskWhenNoWorkerHasStartedIt) {
  ThreadPool pool(2);  // One worker.
  std::atomic<int> runs{0};
  {
    const WorkerBlocker blocker(pool);
    Lookahead<int> next(pool, [&runs] { return ++runs; });
    EXPECT_EQ(next.Take(), 1);
    EXPECT_TRUE(next.ran_inline());
  }
  // The freed worker dequeues the claimed entry, which does nothing.
  EXPECT_TRUE(WaitFor([&pool] { return pool.stats().tasks_executed == 2; }));
  EXPECT_EQ(runs.load(), 1);
}

TEST(LookaheadTest, AnIdleWorkerRunsTheTaskInAParallelRegion) {
  ThreadPool pool(2);
  std::atomic<bool> started{false};
  std::thread::id ran_on;
  bool in_region = false;
  Lookahead<int> next(pool, [&] {
    ran_on = std::this_thread::get_id();
    in_region = base::InParallelRegion();
    started = true;
    return 7;
  });
  EXPECT_TRUE(WaitFor([&started] { return started.load(); }));
  EXPECT_EQ(next.Take(), 7);
  EXPECT_FALSE(next.ran_inline());
  EXPECT_NE(ran_on, std::this_thread::get_id());
  EXPECT_TRUE(in_region);
  EXPECT_FALSE(base::InParallelRegion());
}

TEST(LookaheadTest, TakeRethrowsAWorkersException) {
  ThreadPool pool(2);
  std::atomic<bool> started{false};
  Lookahead<int> next(pool, [&started]() -> int {
    started = true;
    throw std::runtime_error("boom");
  });
  EXPECT_TRUE(WaitFor([&started] { return started.load(); }));
  EXPECT_THROW(next.Take(), std::runtime_error);
  EXPECT_FALSE(next.ran_inline());
}

TEST(LookaheadTest, DestroyingItUntakenCancelsAnUnstartedTaskAndWaitsOutAStartedOne) {
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  {
    const WorkerBlocker blocker(pool);
    const Lookahead<int> next(pool, [&runs] { return ++runs; });
  }
  EXPECT_TRUE(WaitFor([&pool] { return pool.stats().tasks_executed == 2; }));
  EXPECT_EQ(runs.load(), 0);

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> finished{false};
  std::thread releaser;
  {
    const Lookahead<int> next(pool, [&] {
      started = true;
      while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      finished = true;
      return 1;
    });
    EXPECT_TRUE(WaitFor([&started] { return started.load(); }));
    releaser = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      release = true;
    });
  }
  EXPECT_TRUE(finished.load());
  releaser.join();
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ScopedParallelism scoped(4);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(0, kN, 7, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[static_cast<size_t>(i)], 1);
}

TEST(ParallelForTest, GrainZeroTreatedAsOne) {
  ScopedParallelism scoped(4);
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 100, 0, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950);
}

TEST(ParallelForTest, EmptyAndReversedRangesAreNoOps) {
  ScopedParallelism scoped(4);
  std::atomic<int> calls{0};
  ParallelFor(0, 0, 1, [&](int64_t, int64_t) { calls++; });
  ParallelFor(5, 2, 1, [&](int64_t, int64_t) { calls++; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, NestedParallelForFallsBackToSerial) {
  ScopedParallelism scoped(4);
  EXPECT_FALSE(base::InParallelRegion());
  std::atomic<bool> saw_region_flag{false};
  std::atomic<bool> nested_stayed_on_thread{true};
  ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
    if (base::InParallelRegion()) saw_region_flag = true;
    const std::thread::id outer = std::this_thread::get_id();
    // The nested loop must execute inline on the same thread, not on the pool.
    ParallelFor(0, 64, 1, [&](int64_t, int64_t) {
      if (std::this_thread::get_id() != outer) nested_stayed_on_thread = false;
    });
  });
  EXPECT_TRUE(saw_region_flag);
  EXPECT_TRUE(nested_stayed_on_thread);
  EXPECT_FALSE(base::InParallelRegion());
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ScopedParallelism scoped(4);
  EXPECT_THROW(ParallelFor(0, 256, 1,
                           [&](int64_t b, int64_t) {
                             if (b >= 64) throw std::runtime_error("chunk failed");
                           }),
               std::runtime_error);
  // The pool must remain usable after an exception.
  EXPECT_EQ(ParallelSum(100, 1, [](int64_t i) { return double(i); }), 4950.0);
}

TEST(ParallelMapReduceTest, FoldIsStrictlyIndexOrdered) {
  ScopedParallelism scoped(4);
  // String concatenation is non-commutative: any out-of-order fold scrambles it.
  const std::string joined = ParallelMapReduce<std::string>(
      26, 1, [](int64_t i) { return std::string(1, static_cast<char>('a' + i)); },
      std::string(),
      [](std::string acc, std::string part) { return acc + part; });
  EXPECT_EQ(joined, "abcdefghijklmnopqrstuvwxyz");
}

TEST(ParallelMapReduceTest, SumMatchesSerialBitwise) {
  auto value = [](int64_t i) { return 1.0 / (1.0 + static_cast<double>(i) * 0.37); };
  double serial;
  {
    ScopedParallelism scoped(1);
    serial = ParallelSum(5000, 16, value);
  }
  ScopedParallelism scoped(4);
  const double parallel = ParallelSum(5000, 16, value);
  EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0);
}

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  rng.FillNormal(m.data(), m.size());
  return m;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

TEST(ParallelDeterminismTest, MatMulFamilyBitIdentical) {
  // 80x90 * 90x70 is above the GEMM parallel threshold (~64^3 flops).
  const Matrix a = RandomMatrix(80, 90, 1);
  const Matrix b = RandomMatrix(90, 70, 2);
  const Matrix at = RandomMatrix(90, 80, 3);
  Matrix serial_ab, serial_ta, serial_tb;
  {
    ScopedParallelism scoped(1);
    serial_ab = linalg::MatMul(a, b);
    serial_ta = linalg::MatMulTransA(at, b);
    serial_tb = linalg::MatMulTransB(a, RandomMatrix(70, 90, 4));
  }
  ScopedParallelism scoped(4);
  EXPECT_TRUE(BitIdentical(serial_ab, linalg::MatMul(a, b)));
  EXPECT_TRUE(BitIdentical(serial_ta, linalg::MatMulTransA(at, b)));
  EXPECT_TRUE(BitIdentical(serial_tb, linalg::MatMulTransB(a, RandomMatrix(70, 90, 4))));
}

TEST(ParallelDeterminismTest, RbfMmdBitIdentical) {
  const Matrix a = RandomMatrix(48, 20, 5);
  const Matrix b = RandomMatrix(40, 20, 6);
  double serial_median, serial_fixed;
  {
    ScopedParallelism scoped(1);
    serial_median = distance::RbfMmd(a, b);
    serial_fixed = distance::RbfMmd(a, b, 0.5);
  }
  ScopedParallelism scoped(4);
  EXPECT_EQ(serial_median, distance::RbfMmd(a, b));
  EXPECT_EQ(serial_fixed, distance::RbfMmd(a, b, 0.5));
}

TEST(ParallelDeterminismTest, TsneBitIdentical) {
  const Matrix data = RandomMatrix(36, 12, 7);
  embed::TsneOptions options;
  options.iterations = 30;
  Matrix serial;
  {
    ScopedParallelism scoped(1);
    serial = embed::Tsne(data, options);
  }
  ScopedParallelism scoped(4);
  EXPECT_TRUE(BitIdentical(serial, embed::Tsne(data, options)));
}

TEST(DtwIndependentTest, StridedPathMatchesColumnwiseReference) {
  const Matrix a = RandomMatrix(40, 5, 8);
  const Matrix b = RandomMatrix(40, 5, 9);
  for (const int64_t band : {int64_t{-1}, int64_t{3}}) {
    // Reference: per-column dependent DTW on materialized columns (the old path).
    double total_sq = 0.0;
    for (int64_t j = 0; j < a.cols(); ++j) {
      const double d = distance::DtwDistance(a.Col(j), b.Col(j), band);
      total_sq += d * d;
    }
    EXPECT_EQ(std::sqrt(total_sq), distance::DtwIndependent(a, b, band));
  }
  // Single dimension: independent equals dependent exactly.
  const Matrix u = RandomMatrix(30, 1, 10);
  const Matrix v = RandomMatrix(30, 1, 11);
  EXPECT_EQ(distance::DtwDistance(u, v), distance::DtwIndependent(u, v));
}

TEST(ParallelDeterminismTest, EmbedderBitIdentical) {
  const std::vector<Matrix> samples = [&] {
    std::vector<Matrix> out;
    for (int i = 0; i < 150; ++i) out.push_back(RandomMatrix(10, 3, 100 + i));
    return out;
  }();
  embed::SequenceEmbedder::Options options;
  options.epochs = 2;
  Matrix serial;
  {
    ScopedParallelism scoped(1);
    embed::SequenceEmbedder embedder(3, options, 99);
    ASSERT_TRUE(embedder.Fit(samples).ok());
    serial = embedder.Embed(samples);
  }
  ScopedParallelism scoped(4);
  embed::SequenceEmbedder embedder(3, options, 99);
  ASSERT_TRUE(embedder.Fit(samples).ok());
  EXPECT_TRUE(BitIdentical(serial, embedder.Embed(samples)));
}

/// The tentpole acceptance test: every measure in the default suite — including the
/// TSTR measures that train networks and C-FID through the shared embedder — must
/// score byte-identically whether the harness evaluates 1-wide or 4-wide.
TEST(ParallelDeterminismTest, MeasureSuiteBitIdenticalAcrossThreadCounts) {
  const core::Dataset real("sine-real", data::SineBenchmark(20, 12, 2, /*seed=*/31));
  const core::Dataset test("sine-test", data::SineBenchmark(8, 12, 2, /*seed=*/32));
  const core::Dataset generated("sine-gen",
                                data::SineBenchmark(20, 12, 2, /*seed=*/33));

  // Also returns the counts snapshot, which holds the train.* telemetry of the
  // DS, PS and C-FID embedder training loops.
  auto run_suite = [&](int parallelism, std::string* counts) {
    ScopedParallelism scoped(parallelism);
    obs::MetricRegistry::Global().Reset();
    core::HarnessOptions options;
    options.stochastic_repeats = 2;
    options.include_ps_entire = true;
    options.embedder.epochs = 2;
    options.seed = 7;
    core::Harness harness(options);  // Fresh harness: embedder fit included.
    auto scores = harness.EvaluateGenerated(real, test, generated, "sine").value();
    *counts = obs::MetricRegistry::Global().SnapshotJson(/*include_timings=*/false);
    return scores;
  };

  std::string serial_counts;
  std::string parallel_counts;
  const auto serial = run_suite(1, &serial_counts);
  const auto parallel = run_suite(4, &parallel_counts);
  EXPECT_EQ(serial_counts, parallel_counts);
  for (const char* loop :
       {"train.DS.classifier", "train.PS.forecaster", "train.C-FID.embedder"}) {
    EXPECT_NE(serial_counts.find(std::string("\"") + loop + ".steps\""),
              std::string::npos)
        << loop;
    EXPECT_NE(serial_counts.find(std::string("\"") + loop + ".loss\""),
              std::string::npos)
        << loop;
  }
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), 10u);  // Full paper suite incl. PS(entire).
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].first, parallel[i].first);
    EXPECT_EQ(std::memcmp(&serial[i].second.mean, &parallel[i].second.mean,
                          sizeof(double)),
              0)
        << serial[i].first << ": " << serial[i].second.mean << " vs "
        << parallel[i].second.mean;
    EXPECT_EQ(std::memcmp(&serial[i].second.std, &parallel[i].second.std,
                          sizeof(double)),
              0)
        << serial[i].first;
  }
}

}  // namespace
}  // namespace tsg
