#include "embed/tsne.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "base/check.h"
#include "base/thread_pool.h"
#include "distance/distance.h"
#include "linalg/decomp.h"

namespace tsg::embed {

using linalg::Matrix;

namespace {

/// Calibrates each row's Gaussian bandwidth so the conditional distribution has the
/// requested perplexity, then returns the symmetrized joint P (scaled to sum to 1).
Matrix ComputeP(const Matrix& sq_dist, double perplexity) {
  const int64_t n = sq_dist.rows();
  const double target_entropy = std::log(perplexity);
  Matrix p(n, n);

  // Each row's bandwidth search is independent and writes only its own row of p.
  base::ParallelFor(0, n, 4, [&](int64_t row0, int64_t row1) {
  for (int64_t i = row0; i < row1; ++i) {
    double beta = 1.0, beta_lo = 0.0, beta_hi = 1e300;
    std::vector<double> row(static_cast<size_t>(n), 0.0);
    for (int iter = 0; iter < 60; ++iter) {
      double sum = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        row[static_cast<size_t>(j)] =
            j == i ? 0.0 : std::exp(-beta * sq_dist(i, j));
        sum += row[static_cast<size_t>(j)];
      }
      if (sum <= 0.0) sum = 1e-300;
      double entropy = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        const double pj = row[static_cast<size_t>(j)] / sum;
        if (pj > 1e-300) entropy -= pj * std::log(pj);
        row[static_cast<size_t>(j)] = pj;
      }
      const double diff = entropy - target_entropy;
      if (std::fabs(diff) < 1e-5) break;
      if (diff > 0) {  // Entropy too high -> sharpen (increase beta).
        beta_lo = beta;
        beta = beta_hi > 1e299 ? beta * 2.0 : 0.5 * (beta + beta_hi);
      } else {
        beta_hi = beta;
        beta = beta_lo <= 0.0 ? beta / 2.0 : 0.5 * (beta + beta_lo);
      }
    }
    for (int64_t j = 0; j < n; ++j) p(i, j) = row[static_cast<size_t>(j)];
  }
  });

  // Symmetrize and normalize to a joint distribution; the mass total folds
  // per-row partial sums in row order so it is thread-count independent.
  Matrix joint(n, n);
  const double total = base::ParallelSum(n, 16, [&](int64_t i) {
    double row_total = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      joint(i, j) = (p(i, j) + p(j, i)) / (2.0 * static_cast<double>(n));
      row_total += joint(i, j);
    }
    return row_total;
  });
  if (total > 0) joint *= 1.0 / total;
  for (int64_t i = 0; i < joint.size(); ++i) joint[i] = std::max(joint[i], 1e-12);
  return joint;
}

}  // namespace

Matrix Tsne(const Matrix& data, const TsneOptions& options) {
  TSG_CHECK_GE(data.rows(), 4);
  Matrix x = data;
  if (options.pca_dims > 0 && data.cols() > options.pca_dims) {
    auto pca = linalg::Pca(data, options.pca_dims);
    if (pca.ok()) x = linalg::PcaTransform(pca.value(), data);
  }

  const int64_t n = x.rows();
  const double perplexity =
      std::min(options.perplexity, static_cast<double>(n - 1) / 3.0);
  Matrix p = ComputeP(distance::PairwiseSquaredDistances(x), perplexity);

  Rng rng(options.seed);
  Matrix y(n, 2);
  for (int64_t i = 0; i < y.size(); ++i) y[i] = rng.Normal() * 1e-2;
  Matrix velocity(n, 2);
  Matrix gains(n, 2, 1.0);

  for (int iter = 0; iter < options.iterations; ++iter) {
    const double exaggeration =
        iter < options.exaggeration_iters ? options.early_exaggeration : 1.0;
    const double momentum = iter < options.momentum_switch_iter
                                ? options.initial_momentum
                                : options.final_momentum;

    // Student-t affinities in the embedding: upper-triangle rows in parallel with a
    // row-ordered q_sum reduction, then a mirror pass (the scheme of
    // distance::PairwiseSquaredDistances).
    Matrix num(n, n);
    double q_sum = base::ParallelSum(n, 4, [&](int64_t i) {
      double row_sum = 0.0;
      for (int64_t j = i + 1; j < n; ++j) {
        const double dx = y(i, 0) - y(j, 0);
        const double dy = y(i, 1) - y(j, 1);
        const double v = 1.0 / (1.0 + dx * dx + dy * dy);
        num(i, j) = v;
        row_sum += 2.0 * v;
      }
      return row_sum;
    });
    base::ParallelFor(0, n, 16, [&](int64_t row0, int64_t row1) {
      for (int64_t i = row0; i < row1; ++i) {
        for (int64_t j = 0; j < i; ++j) num(i, j) = num(j, i);
      }
    });
    q_sum = std::max(q_sum, 1e-300);

    // Attraction/repulsion gradient: row i of `grad` depends only on read-shared
    // state (p, num, y), so rows are independent.
    Matrix grad(n, 2);
    base::ParallelFor(0, n, 4, [&](int64_t row0, int64_t row1) {
      for (int64_t i = row0; i < row1; ++i) {
        double gx = 0.0, gy = 0.0;
        for (int64_t j = 0; j < n; ++j) {
          if (i == j) continue;
          const double q = std::max(num(i, j) / q_sum, 1e-12);
          const double mult = (exaggeration * p(i, j) - q) * num(i, j);
          gx += mult * (y(i, 0) - y(j, 0));
          gy += mult * (y(i, 1) - y(j, 1));
        }
        grad(i, 0) = 4.0 * gx;
        grad(i, 1) = 4.0 * gy;
      }
    });

    // Delta-bar-delta gains + momentum update, as in the reference implementation.
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t k = 0; k < 2; ++k) {
        const bool same_sign = (grad(i, k) > 0) == (velocity(i, k) > 0);
        gains(i, k) = same_sign ? gains(i, k) * 0.8 : gains(i, k) + 0.2;
        gains(i, k) = std::max(gains(i, k), 0.01);
        velocity(i, k) = momentum * velocity(i, k) -
                         options.learning_rate * gains(i, k) * grad(i, k);
        y(i, k) += velocity(i, k);
      }
    }

    // Re-center to keep the embedding bounded.
    const Matrix mean = linalg::ColMean(y);
    for (int64_t i = 0; i < n; ++i) {
      y(i, 0) -= mean(0, 0);
      y(i, 1) -= mean(0, 1);
    }
  }
  return y;
}

double NeighborhoodOverlap(const Matrix& points2d, const std::vector<int>& labels,
                           int k) {
  const int64_t n = points2d.rows();
  TSG_CHECK_EQ(static_cast<int64_t>(labels.size()), n);
  TSG_CHECK_GE(n, k + 1);
  double overlap = 0.0;
  std::vector<int64_t> order(n);
  std::vector<double> dist(n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const double dx = points2d(i, 0) - points2d(j, 0);
      const double dy = points2d(i, 1) - points2d(j, 1);
      dist[static_cast<size_t>(j)] = i == j ? 1e300 : dx * dx + dy * dy;
    }
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&](int64_t a, int64_t b) {
                        return dist[static_cast<size_t>(a)] <
                               dist[static_cast<size_t>(b)];
                      });
    int other = 0;
    for (int m = 0; m < k; ++m) {
      other += labels[static_cast<size_t>(order[static_cast<size_t>(m)])] !=
               labels[static_cast<size_t>(i)];
    }
    overlap += static_cast<double>(other) / static_cast<double>(k);
  }
  return overlap / static_cast<double>(n);
}

}  // namespace tsg::embed
