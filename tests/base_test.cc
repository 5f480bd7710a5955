#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/status.h"
#include "base/stopwatch.h"
#include "base/thread_pool.h"

namespace tsg {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad k");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 7;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 7);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextUint64() == b.NextUint64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(55);
  const uint64_t first = a.NextUint64();
  a.NextUint64();
  a.Seed(55);
  EXPECT_EQ(a.NextUint64(), first);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 2.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.0);
  }
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, 500);  // ~5 sigma.
  }
}

TEST(RngTest, NormalMomentsMatchStandardGaussian) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(RngTest, NormalWithParamsShiftsAndScales) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.02);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(3);
  const auto perm = rng.Permutation(100);
  std::set<int64_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 99);
}

TEST(RngTest, PermutationIsShuffled) {
  Rng rng(3);
  const auto perm = rng.Permutation(100);
  int fixed_points = 0;
  for (int64_t i = 0; i < 100; ++i) fixed_points += perm[i] == i;
  EXPECT_LT(fixed_points, 10);
}

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double t1 = sw.ElapsedSeconds();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  const double t2 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
}

TEST(CheckDeathTest, FailedCheckAborts) {
  EXPECT_DEATH({ TSG_CHECK(1 == 2) << "math broke"; }, "TSG_CHECK failed");
}

TEST(CheckDeathTest, ComparisonMacroReportsValues) {
  EXPECT_DEATH({ TSG_CHECK_EQ(3, 4); }, "3 vs 4");
}

TEST(StatusOrDeathTest, ValueOnErrorAbortsWithTheStatus) {
  // A default value would pass silently for a real result (0.0 for a score).
  const StatusOr<double> score = Status::NotFound("missing");
  EXPECT_DEATH((void)score.value(),
               "StatusOr::value\\(\\) on NOT_FOUND: missing");
  EXPECT_DEATH((void)StatusOr<double>(Status::Internal("moved")).value(),
               "StatusOr::value\\(\\) on INTERNAL: moved");
}

TEST(ThreadPoolEnvDeathTest, MalformedThreadCountExitsTwo) {
  // The pool is a process singleton sized once from TSG_THREADS, so each case
  // runs in a freshly started child that sets the variable before the pool
  // exists.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"2x", "0"}) {
    EXPECT_EXIT(
        {
          setenv("TSG_THREADS", bad, /*overwrite=*/1);
          base::ThreadPool::Global();
        },
        ::testing::ExitedWithCode(2), "invalid value for TSG_THREADS")
        << bad;
  }
}

TEST(CheckTest, PassingCheckIsSilent) {
  TSG_CHECK(true);
  TSG_CHECK_EQ(2, 2);
  TSG_CHECK_LT(1, 2);
  TSG_CHECK_LE(2, 2);
  TSG_CHECK_GT(3, 2);
  TSG_CHECK_GE(3, 3);
  TSG_CHECK_NE(1, 2);
}

}  // namespace
}  // namespace tsg
