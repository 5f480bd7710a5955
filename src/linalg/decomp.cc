#include "linalg/decomp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tsg::linalg {

StatusOr<EigenResult> SymmetricEigen(const Matrix& a, int max_sweeps, double tol) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SymmetricEigen requires a square matrix");
  }
  const int64_t n = a.rows();
  Matrix d = a;  // Working copy that converges to diag(eigenvalues).
  Matrix v = Matrix::Identity(n);

  auto off_diagonal_norm = [&d, n]() {
    double s = 0.0;
    for (int64_t i = 0; i < n; ++i)
      for (int64_t j = i + 1; j < n; ++j) s += d(i, j) * d(i, j);
    return std::sqrt(2.0 * s);
  };

  const double scale = std::max(1.0, d.MaxAbs());
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm() <= tol * scale * static_cast<double>(n)) break;
    for (int64_t p = 0; p < n - 1; ++p) {
      for (int64_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::fabs(apq) <= tol * scale) continue;
        const double app = d(p, p), aqq = d(q, q);
        const double theta = 0.5 * (aqq - app) / apq;
        // Stable Jacobi rotation: t = sign(theta) / (|theta| + sqrt(theta^2 + 1)).
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (int64_t k = 0; k < n; ++k) {
          const double dkp = d(k, p), dkq = d(k, q);
          d(k, p) = c * dkp - s * dkq;
          d(k, q) = s * dkp + c * dkq;
        }
        for (int64_t k = 0; k < n; ++k) {
          const double dpk = d(p, k), dqk = d(q, k);
          d(p, k) = c * dpk - s * dqk;
          d(q, k) = s * dpk + c * dqk;
        }
        for (int64_t k = 0; k < n; ++k) {
          const double vkp = v(k, p), vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&d](int64_t i, int64_t j) { return d(i, i) > d(j, j); });

  EigenResult result;
  result.values.resize(n);
  result.vectors = Matrix(n, n);
  for (int64_t out = 0; out < n; ++out) {
    const int64_t src = order[out];
    result.values[out] = d(src, src);
    for (int64_t k = 0; k < n; ++k) result.vectors(k, out) = v(k, src);
  }
  return result;
}

StatusOr<Matrix> SqrtSymmetric(const Matrix& a) {
  StatusOr<EigenResult> eigen = SymmetricEigen(a);
  if (!eigen.ok()) return eigen.status();
  const EigenResult& e = eigen.value();
  const int64_t n = a.rows();
  Matrix sqrt_diag(n, n);
  for (int64_t i = 0; i < n; ++i) {
    sqrt_diag(i, i) = std::sqrt(std::max(0.0, e.values[i]));
  }
  return MatMul(MatMul(e.vectors, sqrt_diag), e.vectors.Transpose());
}

double Trace(const Matrix& a) {
  TSG_CHECK_EQ(a.rows(), a.cols());
  double t = 0.0;
  for (int64_t i = 0; i < a.rows(); ++i) t += a(i, i);
  return t;
}

StatusOr<PcaResult> Pca(const Matrix& data, int k) {
  if (k <= 0 || k > data.cols()) {
    return Status::InvalidArgument("PCA component count out of range");
  }
  PcaResult result;
  result.mean = ColMean(data);

  const int64_t n = data.rows(), d = data.cols();
  Matrix centered = data;
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < d; ++j) centered(i, j) -= result.mean(0, j);

  if (d > n && k <= n) {
    // Dual (Gram-matrix) PCA: eigen-decompose the n x n Gram matrix instead of the
    // d x d covariance — same nonzero spectrum, cubically cheaper when d >> n
    // (flattened windows easily reach d ~ 1000 while n ~ 200).
    Matrix gram = MatMulTransB(centered, centered);
    gram *= 1.0 / static_cast<double>(std::max<int64_t>(n - 1, 1));
    StatusOr<EigenResult> eigen = SymmetricEigen(gram);
    if (!eigen.ok()) return eigen.status();
    const EigenResult& e = eigen.value();
    result.components = Matrix(d, k);
    result.explained_variance.assign(e.values.begin(), e.values.begin() + k);
    for (int k_i = 0; k_i < k; ++k_i) {
      // v = X_c^T u, normalized.
      Matrix u(n, 1);
      for (int64_t i = 0; i < n; ++i) u(i, 0) = e.vectors(i, k_i);
      const Matrix v = MatMulTransA(centered, u);
      const double norm = std::max(v.Norm(), 1e-300);
      for (int64_t j = 0; j < d; ++j) result.components(j, k_i) = v(j, 0) / norm;
    }
    return result;
  }

  const Matrix cov = RowCovariance(data);
  StatusOr<EigenResult> eigen = SymmetricEigen(cov);
  if (!eigen.ok()) return eigen.status();
  const EigenResult& e = eigen.value();
  result.components = e.vectors.Block(0, 0, data.cols(), k);
  result.explained_variance.assign(e.values.begin(), e.values.begin() + k);
  return result;
}

Matrix PcaTransform(const PcaResult& pca, const Matrix& data) {
  TSG_CHECK_EQ(data.cols(), pca.mean.cols());
  Matrix centered = data;
  for (int64_t i = 0; i < data.rows(); ++i)
    for (int64_t j = 0; j < data.cols(); ++j) centered(i, j) -= pca.mean(0, j);
  return MatMul(centered, pca.components);
}

}  // namespace tsg::linalg
