#include "distance/distance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "base/check.h"
#include "base/thread_pool.h"
#include "kernels/kernels.h"
#include "linalg/decomp.h"

namespace tsg::distance {

namespace {

/// The DTW dynamic program over an (la x lb) grid whose cell (i, j) costs
/// cost(i, j) (0-based), inside a Sakoe-Chiba band of half-width `band`
/// (band < 0: unconstrained). Returns the square root of the cheapest path's
/// summed cost. `prev`/`cur` are the two rolling DP rows, so a caller that runs
/// several programs reuses one allocation.
template <typename CellCost>
double DtwRecurrence(int64_t la, int64_t lb, int64_t band, const CellCost& cost,
                     std::vector<double>& prev, std::vector<double>& cur) {
  TSG_CHECK(la > 0 && lb > 0);
  if (band < 0) band = std::max(la, lb);
  band = std::max(band, std::abs(la - lb));  // Band must admit the diagonal.

  const double kInf = std::numeric_limits<double>::infinity();
  prev.assign(static_cast<size_t>(lb + 1), kInf);
  cur.assign(static_cast<size_t>(lb + 1), kInf);
  prev[0] = 0.0;

  for (int64_t i = 1; i <= la; ++i) {
    std::fill(cur.begin(), cur.end(), kInf);
    const int64_t j_lo = std::max<int64_t>(1, i - band);
    const int64_t j_hi = std::min<int64_t>(lb, i + band);
    for (int64_t j = j_lo; j <= j_hi; ++j) {
      const double best = std::min({prev[static_cast<size_t>(j)],
                                    prev[static_cast<size_t>(j - 1)],
                                    cur[static_cast<size_t>(j - 1)]});
      cur[static_cast<size_t>(j)] = cost(i - 1, j - 1) + best;
    }
    std::swap(prev, cur);
  }
  return std::sqrt(prev[static_cast<size_t>(lb)]);
}

}  // namespace

double EuclideanDistance(const Matrix& a, const Matrix& b) {
  TSG_CHECK(a.SameShape(b));
  return std::sqrt(kernels::SquaredDistance(a.data(), b.data(), a.size()));
}

double DtwDistance(const Matrix& a, const Matrix& b, int64_t band) {
  TSG_CHECK_EQ(a.cols(), b.cols());
  const int64_t dims = a.cols();
  std::vector<double> prev, cur;
  return DtwRecurrence(
      a.rows(), b.rows(), band,
      [&](int64_t i, int64_t j) {
        return kernels::SquaredDistance(a.data() + i * dims, b.data() + j * dims,
                                        dims);
      },
      prev, cur);
}

double DtwIndependent(const Matrix& a, const Matrix& b, int64_t band) {
  TSG_CHECK_EQ(a.cols(), b.cols());
  // Strided reads walk each column in place; one pair of DP rows is reused across
  // all dimensions instead of materializing a Matrix per column.
  const int64_t dims = a.cols();
  std::vector<double> prev, cur;
  double total_sq = 0.0;
  for (int64_t k = 0; k < dims; ++k) {
    const double d = DtwRecurrence(
        a.rows(), b.rows(), band,
        [&](int64_t i, int64_t j) {
          const double diff = a.data()[i * dims + k] - b.data()[j * dims + k];
          return diff * diff;
        },
        prev, cur);
    total_sq += d * d;
  }
  return std::sqrt(total_sq);
}

StatusOr<double> FrechetDistance(const Matrix& embeddings_a, const Matrix& embeddings_b,
                                 double ridge) {
  if (embeddings_a.cols() != embeddings_b.cols()) {
    return Status::InvalidArgument("embedding dimensions differ");
  }
  if (embeddings_a.rows() < 2 || embeddings_b.rows() < 2) {
    return Status::InvalidArgument("need at least 2 embeddings per set");
  }
  const Matrix mu_a = linalg::ColMean(embeddings_a);
  const Matrix mu_b = linalg::ColMean(embeddings_b);
  return FrechetFromMoments(
      std::vector<double>(mu_a.data(), mu_a.data() + mu_a.size()),
      linalg::RowCovariance(embeddings_a),
      std::vector<double>(mu_b.data(), mu_b.data() + mu_b.size()),
      linalg::RowCovariance(embeddings_b), ridge);
}

StatusOr<double> FrechetFromMoments(const std::vector<double>& mean_a, Matrix cov_a,
                                    const std::vector<double>& mean_b, Matrix cov_b,
                                    double ridge) {
  const int64_t d = cov_a.rows();
  TSG_CHECK(cov_a.SameShape(cov_b) && cov_a.cols() == d);
  TSG_CHECK(static_cast<int64_t>(mean_a.size()) == d &&
            static_cast<int64_t>(mean_b.size()) == d);
  for (int64_t i = 0; i < d; ++i) {
    cov_a(i, i) += ridge;
    cov_b(i, i) += ridge;
  }

  double mean_term = 0.0;
  for (int64_t j = 0; j < d; ++j) {
    const double diff = mean_a[static_cast<size_t>(j)] - mean_b[static_cast<size_t>(j)];
    mean_term += diff * diff;
  }

  // Tr((C1 C2)^{1/2}) computed symmetrically as Tr((S C2 S)^{1/2}) with S = C1^{1/2},
  // which keeps the argument symmetric PSD so the Jacobi-based sqrt applies.
  StatusOr<Matrix> sqrt_a = linalg::SqrtSymmetric(cov_a);
  if (!sqrt_a.ok()) return sqrt_a.status();
  const Matrix inner =
      linalg::MatMul(linalg::MatMul(sqrt_a.value(), cov_b), sqrt_a.value());
  StatusOr<linalg::EigenResult> eig = linalg::SymmetricEigen(inner);
  if (!eig.ok()) return eig.status();
  double trace_sqrt = 0.0;
  for (double v : eig.value().values) trace_sqrt += std::sqrt(std::max(0.0, v));

  const double fid =
      mean_term + linalg::Trace(cov_a) + linalg::Trace(cov_b) - 2.0 * trace_sqrt;
  return std::max(0.0, fid);
}

Matrix PairwiseSquaredDistances(const Matrix& x) {
  const int64_t n = x.rows(), d = x.cols();
  Matrix dist(n, n);
  // Pass 1: each task owns the upper-triangle part of its rows. Pass 2 mirrors the
  // lower triangle once every upper entry exists; splitting the passes keeps every
  // write owned by exactly one task.
  base::ParallelFor(0, n, 4, [&](int64_t row0, int64_t row1) {
    for (int64_t i = row0; i < row1; ++i) {
      const double* xi = x.data() + i * d;
      for (int64_t j = i + 1; j < n; ++j) {
        dist(i, j) = kernels::SquaredDistance(xi, x.data() + j * d, d);
      }
    }
  });
  base::ParallelFor(0, n, 16, [&](int64_t row0, int64_t row1) {
    for (int64_t i = row0; i < row1; ++i) {
      for (int64_t j = 0; j < i; ++j) dist(i, j) = dist(j, i);
    }
  });
  return dist;
}

Matrix CrossSquaredDistances(const Matrix& a, const Matrix& b) {
  TSG_CHECK_EQ(a.cols(), b.cols());
  const int64_t n = a.rows(), m = b.rows(), d = a.cols();
  Matrix dist(n, m);
  base::ParallelFor(0, n, 8, [&](int64_t row0, int64_t row1) {
    for (int64_t i = row0; i < row1; ++i) {
      const double* ai = a.data() + i * d;
      for (int64_t j = 0; j < m; ++j) {
        dist(i, j) = kernels::SquaredDistance(ai, b.data() + j * d, d);
      }
    }
  });
  return dist;
}

double RbfMmd(const Matrix& a, const Matrix& b, double gamma) {
  return RbfMmdFromDistances(PairwiseSquaredDistances(a), PairwiseSquaredDistances(b),
                             CrossSquaredDistances(a, b), gamma);
}

double RbfMmdFromDistances(const Matrix& d_aa, const Matrix& d_bb, const Matrix& d_ab,
                           double gamma) {
  const int64_t n = d_aa.rows(), m = d_bb.rows();
  TSG_CHECK(d_aa.cols() == n && d_bb.cols() == m);
  TSG_CHECK(d_ab.rows() == n && d_ab.cols() == m);
  TSG_CHECK(n >= 2 && m >= 2);

  if (gamma <= 0.0) {
    // Median heuristic over cross distances.
    std::vector<double> dists(d_ab.data(), d_ab.data() + d_ab.size());
    std::nth_element(dists.begin(), dists.begin() + dists.size() / 2, dists.end());
    const double median = std::max(dists[dists.size() / 2], 1e-12);
    gamma = 1.0 / median;
  }

  // Kernel-matrix rows are summed independently and reduced in index order, so the
  // three statistics are bit-identical for any thread count.
  auto within_sum = [gamma](const Matrix& dist) {
    const int64_t k = dist.rows();
    return base::ParallelSum(k, 8, [&](int64_t i) {
      const double* row = dist.data() + i * k;
      double s = 0.0;
      for (int64_t j = 0; j < k; ++j) {
        if (i != j) s += std::exp(-gamma * row[j]);
      }
      return s;
    });
  };
  const double kaa = within_sum(d_aa);
  const double kbb = within_sum(d_bb);
  const double kab = base::ParallelSum(n, 8, [&](int64_t i) {
    const double* row = d_ab.data() + i * m;
    double s = 0.0;
    for (int64_t j = 0; j < m; ++j) s += std::exp(-gamma * row[j]);
    return s;
  });

  const double dn = static_cast<double>(n), dm = static_cast<double>(m);
  return kaa / (dn * (dn - 1.0)) + kbb / (dm * (dm - 1.0)) - 2.0 * kab / (dn * dm);
}

}  // namespace tsg::distance
