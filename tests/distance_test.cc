#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "distance/distance.h"
#include "kernels/kernels.h"

namespace tsg::distance {
namespace {

Matrix RandomSeries(int64_t l, int64_t n, Rng& rng) {
  Matrix m(l, n);
  rng.FillNormal(m.data(), m.size());
  return m;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(EuclideanTest, IdenticalSeriesIsZero) {
  Rng rng(1);
  const Matrix a = RandomSeries(24, 5, rng);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, a), 0.0);
}

TEST(EuclideanTest, KnownValue) {
  const Matrix a = {{0, 0}, {0, 0}};
  const Matrix b = {{3, 0}, {0, 4}};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
}

TEST(EuclideanTest, Symmetry) {
  Rng rng(2);
  const Matrix a = RandomSeries(10, 3, rng);
  const Matrix b = RandomSeries(10, 3, rng);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), EuclideanDistance(b, a));
}

TEST(EuclideanTest, TriangleInequality) {
  Rng rng(3);
  const Matrix a = RandomSeries(8, 2, rng);
  const Matrix b = RandomSeries(8, 2, rng);
  const Matrix c = RandomSeries(8, 2, rng);
  EXPECT_LE(EuclideanDistance(a, c),
            EuclideanDistance(a, b) + EuclideanDistance(b, c) + 1e-12);
}

TEST(DtwTest, IdenticalSeriesIsZero) {
  Rng rng(4);
  const Matrix a = RandomSeries(30, 4, rng);
  EXPECT_DOUBLE_EQ(DtwDistance(a, a), 0.0);
}

TEST(DtwTest, Symmetry) {
  Rng rng(5);
  const Matrix a = RandomSeries(12, 2, rng);
  const Matrix b = RandomSeries(15, 2, rng);
  EXPECT_NEAR(DtwDistance(a, b), DtwDistance(b, a), 1e-12);
}

TEST(DtwTest, NeverExceedsEuclideanForEqualLengths) {
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix a = RandomSeries(20, 3, rng);
    const Matrix b = RandomSeries(20, 3, rng);
    EXPECT_LE(DtwDistance(a, b), EuclideanDistance(a, b) + 1e-9);
  }
}

TEST(DtwTest, AlignsTimeShiftedSignals) {
  // A sine and its shifted copy: large ED, small DTW.
  const int l = 60;
  Matrix a(l, 1), b(l, 1);
  for (int t = 0; t < l; ++t) {
    a(t, 0) = std::sin(2.0 * M_PI * t / 20.0);
    b(t, 0) = std::sin(2.0 * M_PI * (t - 3) / 20.0);
  }
  // Warping absorbs the shift except at the boundaries, so DTW is far below ED.
  EXPECT_LT(DtwDistance(a, b), 0.5 * EuclideanDistance(a, b));
}

TEST(DtwTest, HandlesDifferentLengths) {
  Rng rng(7);
  const Matrix a = RandomSeries(10, 2, rng);
  const Matrix b = RandomSeries(25, 2, rng);
  const double d = DtwDistance(a, b);
  EXPECT_GT(d, 0.0);
  EXPECT_TRUE(std::isfinite(d));
}

TEST(DtwTest, BandZeroEqualsEuclideanForEqualLengths) {
  Rng rng(8);
  const Matrix a = RandomSeries(16, 3, rng);
  const Matrix b = RandomSeries(16, 3, rng);
  EXPECT_NEAR(DtwDistance(a, b, /*band=*/0), EuclideanDistance(a, b), 1e-9);
}

TEST(DtwTest, WiderBandNeverIncreasesDistance) {
  Rng rng(9);
  const Matrix a = RandomSeries(20, 2, rng);
  const Matrix b = RandomSeries(20, 2, rng);
  double prev = DtwDistance(a, b, 0);
  for (int band : {1, 2, 5, 10, 20}) {
    const double d = DtwDistance(a, b, band);
    EXPECT_LE(d, prev + 1e-9);
    prev = d;
  }
}

TEST(FrechetTest, IdenticalSetsGiveZero) {
  Rng rng(10);
  const Matrix e = RandomSeries(200, 6, rng);
  auto fid = FrechetDistance(e, e);
  ASSERT_TRUE(fid.ok());
  EXPECT_NEAR(fid.value(), 0.0, 1e-6);
}

TEST(FrechetTest, MeanShiftGivesSquaredDistance) {
  Rng rng(11);
  Matrix a = RandomSeries(5000, 3, rng);
  Matrix b = a;
  for (int64_t i = 0; i < b.rows(); ++i) b(i, 0) += 2.0;
  auto fid = FrechetDistance(a, b);
  ASSERT_TRUE(fid.ok());
  EXPECT_NEAR(fid.value(), 4.0, 0.05);
}

TEST(FrechetTest, ScaleChangeIsDetected) {
  Rng rng(12);
  Matrix a = RandomSeries(5000, 2, rng);
  Matrix b = RandomSeries(5000, 2, rng);
  b *= 3.0;
  auto fid = FrechetDistance(a, b);
  ASSERT_TRUE(fid.ok());
  // Two independent N(0,1) vs N(0,9) dims: FID ~= 2 * (1 + 9 - 2*3) = 8.
  EXPECT_NEAR(fid.value(), 8.0, 0.5);
}

TEST(FrechetTest, RejectsDimensionMismatch) {
  EXPECT_FALSE(FrechetDistance(Matrix(10, 2), Matrix(10, 3)).ok());
}

TEST(FrechetTest, RejectsTooFewSamples) {
  EXPECT_FALSE(FrechetDistance(Matrix(1, 2), Matrix(10, 2)).ok());
}

TEST(MmdTest, SameDistributionIsSmall) {
  Rng rng(13);
  const Matrix a = RandomSeries(150, 4, rng);
  const Matrix b = RandomSeries(150, 4, rng);
  EXPECT_LT(std::fabs(RbfMmd(a, b)), 0.02);
}

TEST(MmdTest, ShiftedDistributionIsLarger) {
  Rng rng(14);
  const Matrix a = RandomSeries(150, 4, rng);
  Matrix b = RandomSeries(150, 4, rng);
  for (int64_t i = 0; i < b.size(); ++i) b[i] += 2.0;
  EXPECT_GT(RbfMmd(a, b), 10.0 * std::fabs(RbfMmd(a, a)) + 0.05);
}

TEST(MmdTest, ExplicitGammaIsAccepted) {
  Rng rng(15);
  const Matrix a = RandomSeries(50, 2, rng);
  const Matrix b = RandomSeries(50, 2, rng);
  const double d = RbfMmd(a, b, 0.5);
  EXPECT_TRUE(std::isfinite(d));
}

/// The reference model for RbfMmd: the statistic with every squared distance
/// computed in place where it is used — the cross distances once for the
/// median and again for the cross sum, both halves of each within-set block.
double InPlaceRbfMmd(const Matrix& a, const Matrix& b, double gamma) {
  const int64_t n = a.rows(), m = b.rows(), d = a.cols();
  auto sq_dist = [d](const double* x, const double* y) {
    return kernels::SquaredDistance(x, y, d);
  };
  if (gamma <= 0.0) {
    std::vector<double> dists(static_cast<size_t>(n * m));
    base::ParallelFor(0, n, 8, [&](int64_t row0, int64_t row1) {
      for (int64_t i = row0; i < row1; ++i) {
        for (int64_t j = 0; j < m; ++j) {
          dists[static_cast<size_t>(i * m + j)] =
              sq_dist(a.data() + i * d, b.data() + j * d);
        }
      }
    });
    std::nth_element(dists.begin(), dists.begin() + dists.size() / 2, dists.end());
    gamma = 1.0 / std::max(dists[dists.size() / 2], 1e-12);
  }
  auto within_sum = [&](const Matrix& x) {
    const int64_t k = x.rows();
    return base::ParallelSum(k, 8, [&](int64_t i) {
      double s = 0.0;
      for (int64_t j = 0; j < k; ++j) {
        if (i != j) s += std::exp(-gamma * sq_dist(x.data() + i * d, x.data() + j * d));
      }
      return s;
    });
  };
  const double kaa = within_sum(a);
  const double kbb = within_sum(b);
  const double kab = base::ParallelSum(n, 8, [&](int64_t i) {
    double s = 0.0;
    for (int64_t j = 0; j < m; ++j) {
      s += std::exp(-gamma * sq_dist(a.data() + i * d, b.data() + j * d));
    }
    return s;
  });
  const double dn = static_cast<double>(n), dm = static_cast<double>(m);
  return kaa / (dn * (dn - 1.0)) + kbb / (dm * (dm - 1.0)) - 2.0 * kab / (dn * dm);
}

// RbfMmd computes each distance once (one triangle of each within-set block,
// one cross block shared by the median and the cross sum); the statistic must
// keep every bit of the in-place computation, at any pool width. 256 is
// MmdRows' cap, so the largest blocks here are the ones the measure meets.
TEST(MmdTest, MatchesInPlaceReferenceBitwise) {
  for (const int width : {1, 4}) {
    base::ThreadPool::Global().SetMaxParallelism(width);
    for (const int64_t d : {1, 4, 7, 750}) {
      for (const int64_t n : {2, 3, 64, 256}) {
        for (const int64_t m : {2, 3, 64, 256}) {
          Rng rng(static_cast<uint64_t>(1000 * d + 10 * n + m));
          const Matrix a = RandomSeries(n, d, rng);
          const Matrix b = RandomSeries(m, d, rng);
          for (const double gamma : {1.0 / static_cast<double>(d), -1.0}) {
            EXPECT_TRUE(BitEqual(RbfMmd(a, b, gamma), InPlaceRbfMmd(a, b, gamma)))
                << width << " " << d << " " << n << " " << m << " " << gamma;
          }
        }
      }
    }
  }
  base::ThreadPool::Global().SetMaxParallelism(0);
}

// ---- Golden bits. ----
// Rng::Uniform is integer arithmetic, so these inputs are the same on every
// host, and the functions below use no libm call but the correctly rounded
// sqrt; the values are recorded as hex floats. A kernel edit that moves a bit
// fails here rather than in a grid comparison. Results that go through
// std::exp (RbfMmd's) are left to MatchesInPlaceReferenceBitwise, because libm
// differs between hosts.

std::vector<double> UniformVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = rng.Uniform(-1.0, 1.0);
  return v;
}

Matrix UniformMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  const std::vector<double> v = UniformVec(rows * cols, seed);
  Matrix m(rows, cols);
  std::copy(v.begin(), v.end(), m.data());
  return m;
}

TEST(GoldenBitsTest, KernelsAndDistancesMatchRecordedValues) {
  struct KernelGolden {
    int64_t n;
    double dot, sq;
  };
  const KernelGolden kernel_goldens[] = {
      {3, 0x1.3ef67799ebdcap-3, 0x1.06932fa574cfap+0},
      {64, -0x1.34d00a5b59dfcp+2, 0x1.be4db4afa0d2p+5},
      {750, -0x1.2439f5a834a66p+2, 0x1.f944accad11aap+8},
      {1003, -0x1.0959bb57861b6p+4, 0x1.5ea706951b369p+9},
  };
  for (const KernelGolden& g : kernel_goldens) {
    const auto a = UniformVec(g.n, static_cast<uint64_t>(100 + g.n));
    const auto b = UniformVec(g.n, static_cast<uint64_t>(200 + g.n));
    EXPECT_TRUE(BitEqual(kernels::Dot(a.data(), b.data(), g.n), g.dot)) << g.n;
    EXPECT_TRUE(BitEqual(kernels::SquaredDistance(a.data(), b.data(), g.n), g.sq)) << g.n;
  }

  const Matrix ed_a = UniformMatrix(125, 6, 301), ed_b = UniformMatrix(125, 6, 302);
  EXPECT_TRUE(BitEqual(EuclideanDistance(ed_a, ed_b), 0x1.78a676ca0ca46p+4));
  const Matrix dtw_a = UniformMatrix(24, 3, 311), dtw_b = UniformMatrix(20, 3, 312);
  EXPECT_TRUE(BitEqual(DtwDistance(dtw_a, dtw_b), 0x1.6ec926d543249p+2));
  EXPECT_TRUE(BitEqual(DtwDistance(dtw_a, dtw_b, 2), 0x1.72c3e7ec6536cp+2));

  const Matrix cross_a = UniformMatrix(2, 750, 321), cross_b = UniformMatrix(3, 750, 322);
  const Matrix cross = CrossSquaredDistances(cross_a, cross_b);
  ASSERT_EQ(cross.rows(), 2);
  ASSERT_EQ(cross.cols(), 3);
  const double cross_want[2][3] = {
      {0x1.05e2a4af20a42p+9, 0x1.072ff1d3756b9p+9, 0x1.0a274fc65e27ep+9},
      {0x1.df6828b69541p+8, 0x1.f0a8b06bbfa76p+8, 0x1.e34c0873d8c8ep+8},
  };
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_TRUE(BitEqual(cross(i, j), cross_want[i][j])) << i << "," << j;
    }
  }

  // Upper triangle recorded; the block must mirror it and keep a zero diagonal.
  const Matrix pair = PairwiseSquaredDistances(UniformMatrix(3, 750, 323));
  ASSERT_EQ(pair.rows(), 3);
  ASSERT_EQ(pair.cols(), 3);
  const double upper_want[3][3] = {
      {0.0, 0x1.f7aa5fa6b9238p+8, 0x1.e6b771f885c76p+8},
      {0.0, 0.0, 0x1.efcac55a7304fp+8},
      {0.0, 0.0, 0.0},
  };
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = i; j < 3; ++j) {
      EXPECT_TRUE(BitEqual(pair(i, j), upper_want[i][j])) << i << "," << j;
      EXPECT_TRUE(BitEqual(pair(j, i), upper_want[i][j])) << j << "," << i;
    }
  }
}

}  // namespace
}  // namespace tsg::distance

namespace tsg::distance {
namespace {

TEST(DtwIndependentTest, EqualsDependentForUnivariate) {
  Rng rng(20);
  const Matrix a = RandomSeries(18, 1, rng);
  const Matrix b = RandomSeries(18, 1, rng);
  EXPECT_NEAR(DtwIndependent(a, b), DtwDistance(a, b), 1e-12);
}

TEST(DtwIndependentTest, NeverExceedsDependent) {
  // Per-dimension paths are a superset of shared-path alignments, so the
  // independent strategy's optimal cost cannot exceed the dependent one.
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix a = RandomSeries(15, 4, rng);
    const Matrix b = RandomSeries(15, 4, rng);
    EXPECT_LE(DtwIndependent(a, b), DtwDistance(a, b) + 1e-9);
  }
}

TEST(DtwIndependentTest, IdenticalIsZeroAndSymmetric) {
  Rng rng(22);
  const Matrix a = RandomSeries(12, 3, rng);
  const Matrix b = RandomSeries(14, 3, rng);
  EXPECT_DOUBLE_EQ(DtwIndependent(a, a), 0.0);
  EXPECT_NEAR(DtwIndependent(a, b), DtwIndependent(b, a), 1e-12);
}

TEST(DtwIndependentTest, AbsorbsPerDimensionShifts) {
  // Two dimensions shifted in *opposite* directions: a shared path cannot align
  // both, per-dimension paths can.
  const int l = 40;
  Matrix a(l, 2), b(l, 2);
  for (int t = 0; t < l; ++t) {
    a(t, 0) = std::sin(2.0 * M_PI * t / 16.0);
    a(t, 1) = std::sin(2.0 * M_PI * t / 16.0);
    b(t, 0) = std::sin(2.0 * M_PI * (t - 3) / 16.0);
    b(t, 1) = std::sin(2.0 * M_PI * (t + 3) / 16.0);
  }
  EXPECT_LT(DtwIndependent(a, b), 0.7 * DtwDistance(a, b));
}

}  // namespace
}  // namespace tsg::distance
