#ifndef TSG_LINALG_DECOMP_H_
#define TSG_LINALG_DECOMP_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "linalg/matrix.h"

namespace tsg::linalg {

/// Result of a symmetric eigendecomposition: A = V * diag(values) * V^T with
/// eigenvalues sorted in descending order and eigenvectors as columns of V.
struct EigenResult {
  std::vector<double> values;
  Matrix vectors;
};

/// Cyclic Jacobi eigendecomposition of a symmetric matrix. Deterministic, robust, and
/// O(n^3) per sweep — plenty for the <= few-hundred dimensional covariance matrices the
/// benchmark produces (C-FID embeddings, PCA). Fails only on non-square input.
StatusOr<EigenResult> SymmetricEigen(const Matrix& a, int max_sweeps = 64,
                                     double tol = 1e-12);

/// Principal square root of a symmetric positive semi-definite matrix via its
/// eigendecomposition; tiny negative eigenvalues from round-off are clamped to zero.
/// Needed by the Frechet (C-FID) distance.
StatusOr<Matrix> SqrtSymmetric(const Matrix& a);

/// Trace of a square matrix.
double Trace(const Matrix& a);

/// Principal component analysis of row observations.
struct PcaResult {
  Matrix mean;           ///< 1 x d column means.
  Matrix components;     ///< d x k principal directions (columns).
  std::vector<double> explained_variance;  ///< top-k eigenvalues of the covariance.
};

/// Computes the top-k principal components of `data` (rows are observations).
/// Used to pre-reduce inputs before t-SNE, mirroring common practice.
StatusOr<PcaResult> Pca(const Matrix& data, int k);

/// Projects rows of `data` onto the PCA basis: (data - mean) * components.
Matrix PcaTransform(const PcaResult& pca, const Matrix& data);

}  // namespace tsg::linalg

#endif  // TSG_LINALG_DECOMP_H_
