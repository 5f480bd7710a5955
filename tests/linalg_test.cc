#include <cmath>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "linalg/decomp.h"
#include "linalg/matrix.h"

namespace tsg::linalg {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng& rng) {
  Matrix m(rows, cols);
  rng.FillNormal(m.data(), m.size());
  return m;
}

Matrix RandomSpd(int64_t n, Rng& rng) {
  const Matrix a = RandomMatrix(n, n, rng);
  Matrix spd = MatMulTransA(a, a);
  for (int64_t i = 0; i < n; ++i) spd(i, i) += 0.5;
  return spd;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m[5], 5.0);
}

TEST(MatrixTest, InitializerList) {
  Matrix m = {{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(1, 0), 4.0);
}

TEST(MatrixTest, IdentityAndConstant) {
  const Matrix id = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
  const Matrix c = Matrix::Constant(2, 2, 7.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 7.0);
}

TEST(MatrixTest, ArithmeticOperators) {
  const Matrix a = {{1, 2}, {3, 4}};
  const Matrix b = {{5, 6}, {7, 8}};
  EXPECT_TRUE(AllClose(a + b, Matrix({{6, 8}, {10, 12}})));
  EXPECT_TRUE(AllClose(b - a, Matrix({{4, 4}, {4, 4}})));
  EXPECT_TRUE(AllClose(a * 2.0, Matrix({{2, 4}, {6, 8}})));
}

TEST(MatrixTest, MatMulKnownResult) {
  const Matrix a = {{1, 2, 3}, {4, 5, 6}};
  const Matrix b = {{7, 8}, {9, 10}, {11, 12}};
  const Matrix expected = {{58, 64}, {139, 154}};
  EXPECT_TRUE(AllClose(MatMul(a, b), expected));
}

TEST(MatrixTest, TransposedMatMulsAgreeWithExplicitTranspose) {
  Rng rng(1);
  const Matrix a = RandomMatrix(4, 6, rng);
  const Matrix b = RandomMatrix(4, 5, rng);
  const Matrix c = RandomMatrix(5, 6, rng);
  EXPECT_TRUE(AllClose(MatMulTransA(a, b), MatMul(a.Transpose(), b), 1e-12));
  EXPECT_TRUE(AllClose(MatMulTransB(a, c), MatMul(a, c.Transpose()), 1e-12));
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(2);
  const Matrix a = RandomMatrix(3, 7, rng);
  EXPECT_TRUE(AllClose(a.Transpose().Transpose(), a));
}

TEST(MatrixTest, BlockAndSetBlock) {
  Matrix m = {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  const Matrix blk = m.Block(1, 1, 2, 2);
  EXPECT_TRUE(AllClose(blk, Matrix({{5, 6}, {8, 9}})));
  m.SetBlock(0, 0, Matrix({{0, 0}, {0, 0}}));
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(m(2, 2), 9.0);
}

TEST(MatrixTest, RowColExtraction) {
  const Matrix m = {{1, 2}, {3, 4}};
  EXPECT_TRUE(AllClose(m.Row(1), Matrix({{3, 4}})));
  EXPECT_TRUE(AllClose(m.Col(0), Matrix({{1}, {3}})));
}

TEST(MatrixTest, Reductions) {
  const Matrix m = {{1, -2}, {3, -4}};
  EXPECT_DOUBLE_EQ(m.Sum(), -2.0);
  EXPECT_DOUBLE_EQ(m.Mean(), -0.5);
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 4.0);
  EXPECT_DOUBLE_EQ(m.Norm(), std::sqrt(30.0));
}

TEST(MatrixTest, ColMeanAndCovariance) {
  const Matrix data = {{1, 2}, {3, 4}, {5, 6}};
  const Matrix mean = ColMean(data);
  EXPECT_TRUE(AllClose(mean, Matrix({{3, 4}})));
  const Matrix cov = RowCovariance(data);
  EXPECT_NEAR(cov(0, 0), 4.0, 1e-12);
  EXPECT_NEAR(cov(0, 1), 4.0, 1e-12);
  EXPECT_NEAR(cov(1, 1), 4.0, 1e-12);
}

TEST(MatrixDeathTest, ShapeMismatchAborts) {
  const Matrix a(2, 2), b(2, 3);
  EXPECT_DEATH({ auto c = a + b; (void)c; }, "TSG_CHECK failed");
  EXPECT_DEATH({ auto c = MatMul(a, Matrix(3, 1)); (void)c; }, "TSG_CHECK failed");
}

TEST(MatrixDeathTest, OutOfRangeIndexAborts) {
  const Matrix a(2, 2);
  EXPECT_DEATH({ (void)a(2, 0); }, "TSG_CHECK failed");
}

TEST(EigenTest, DiagonalMatrix) {
  const Matrix a = {{3, 0}, {0, 1}};
  auto result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().values[0], 3.0, 1e-10);
  EXPECT_NEAR(result.value().values[1], 1.0, 1e-10);
}

TEST(EigenTest, ReconstructsMatrix) {
  Rng rng(5);
  const Matrix a = RandomSpd(8, rng);
  auto result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  const auto& e = result.value();
  Matrix diag(8, 8);
  for (int64_t i = 0; i < 8; ++i) diag(i, i) = e.values[i];
  const Matrix rebuilt = MatMul(MatMul(e.vectors, diag), e.vectors.Transpose());
  EXPECT_TRUE(AllClose(rebuilt, a, 1e-8));
}

TEST(EigenTest, EigenvectorsAreOrthonormal) {
  Rng rng(6);
  const Matrix a = RandomSpd(6, rng);
  auto result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  const Matrix vtv = MatMulTransA(result.value().vectors, result.value().vectors);
  EXPECT_TRUE(AllClose(vtv, Matrix::Identity(6), 1e-8));
}

TEST(EigenTest, ValuesSortedDescending) {
  Rng rng(7);
  const Matrix a = RandomSpd(10, rng);
  auto result = SymmetricEigen(a);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result.value().values.size(); ++i) {
    EXPECT_GE(result.value().values[i - 1], result.value().values[i]);
  }
}

TEST(EigenTest, RejectsNonSquare) {
  EXPECT_FALSE(SymmetricEigen(Matrix(2, 3)).ok());
}

TEST(SqrtTest, SquaresBackToInput) {
  Rng rng(10);
  const Matrix a = RandomSpd(6, rng);
  auto s = SqrtSymmetric(a);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(AllClose(MatMul(s.value(), s.value()), a, 1e-8));
}

TEST(SqrtTest, IdentitySqrtIsIdentity) {
  auto s = SqrtSymmetric(Matrix::Identity(4));
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(AllClose(s.value(), Matrix::Identity(4), 1e-10));
}

TEST(TraceTest, SumsDiagonal) {
  const Matrix a = {{1, 9}, {9, 4}};
  EXPECT_DOUBLE_EQ(Trace(a), 5.0);
}

TEST(PcaTest, RecoversDominantDirection) {
  // Points spread along (1, 1)/sqrt(2) with small orthogonal noise.
  Rng rng(11);
  Matrix data(400, 2);
  for (int64_t i = 0; i < 400; ++i) {
    const double t = rng.Normal() * 5.0;
    const double noise = rng.Normal() * 0.1;
    data(i, 0) = t + noise;
    data(i, 1) = t - noise;
  }
  auto pca = Pca(data, 1);
  ASSERT_TRUE(pca.ok());
  const double vx = pca.value().components(0, 0);
  const double vy = pca.value().components(1, 0);
  EXPECT_NEAR(std::fabs(vx), std::sqrt(0.5), 0.02);
  EXPECT_NEAR(std::fabs(vy), std::sqrt(0.5), 0.02);
  EXPECT_GT(vx * vy, 0.0);  // Same sign: the diagonal direction.
}

TEST(PcaTest, ExplainedVarianceDescends) {
  Rng rng(12);
  const Matrix data = RandomMatrix(100, 5, rng);
  auto pca = Pca(data, 5);
  ASSERT_TRUE(pca.ok());
  for (size_t i = 1; i < pca.value().explained_variance.size(); ++i) {
    EXPECT_GE(pca.value().explained_variance[i - 1],
              pca.value().explained_variance[i]);
  }
}

TEST(PcaTest, TransformCentersData) {
  Rng rng(13);
  Matrix data = RandomMatrix(200, 3, rng);
  for (int64_t i = 0; i < data.rows(); ++i) data(i, 0) += 10.0;
  auto pca = Pca(data, 2);
  ASSERT_TRUE(pca.ok());
  const Matrix proj = PcaTransform(pca.value(), data);
  EXPECT_EQ(proj.cols(), 2);
  const Matrix mean = ColMean(proj);
  EXPECT_NEAR(mean(0, 0), 0.0, 1e-9);
  EXPECT_NEAR(mean(0, 1), 0.0, 1e-9);
}

TEST(PcaTest, RejectsBadComponentCount) {
  EXPECT_FALSE(Pca(Matrix(10, 3), 0).ok());
  EXPECT_FALSE(Pca(Matrix(10, 3), 4).ok());
}

}  // namespace
}  // namespace tsg::linalg

namespace tsg::linalg {
namespace {

TEST(PcaDualTest, WideDataMatchesDirectProjection) {
  // d >> n triggers the Gram-matrix path; its projections must match the direct
  // covariance eigendecomposition up to per-component sign.
  Rng rng(40);
  const int64_t n = 30, d = 200;
  Matrix data(n, d);
  // Low-rank structure + noise so the top components are well defined.
  for (int64_t i = 0; i < n; ++i) {
    const double a = rng.Normal(), b = rng.Normal();
    for (int64_t j = 0; j < d; ++j) {
      data(i, j) = a * std::sin(0.05 * j) + b * std::cos(0.11 * j) +
                   0.01 * rng.Normal();
    }
  }
  auto dual = Pca(data, 2);
  ASSERT_TRUE(dual.ok());
  const Matrix proj = PcaTransform(dual.value(), data);
  // Captured variance should be nearly all of the total variance.
  double total_var = 0.0;
  const Matrix cov_diag = RowCovariance(data);
  for (int64_t j = 0; j < d; ++j) total_var += cov_diag(j, j);
  double proj_var = 0.0;
  const Matrix proj_cov = RowCovariance(proj);
  for (int64_t j = 0; j < 2; ++j) proj_var += proj_cov(j, j);
  EXPECT_GT(proj_var / total_var, 0.95);
  // Components are unit-norm and orthogonal.
  const Matrix vtv = MatMulTransA(dual.value().components, dual.value().components);
  EXPECT_TRUE(AllClose(vtv, Matrix::Identity(2), 1e-6));
}

TEST(PcaDualTest, TallDataStillUsesDirectPath) {
  Rng rng(41);
  Matrix data(100, 4);
  rng.FillNormal(data.data(), data.size());
  auto result = Pca(data, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().components.rows(), 4);
  EXPECT_EQ(result.value().components.cols(), 4);
}

}  // namespace
}  // namespace tsg::linalg
