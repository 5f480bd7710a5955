#ifndef TSG_DISTANCE_DISTANCE_H_
#define TSG_DISTANCE_DISTANCE_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "linalg/matrix.h"

namespace tsg::distance {

using linalg::Matrix;

/// Euclidean distance between two multivariate series stored as (l x N) matrices
/// (rows are time steps): sqrt(sum over all cells of squared differences). This is the
/// M11 per-pair statistic.
double EuclideanDistance(const Matrix& a, const Matrix& b);

/// Multivariate *dependent* DTW (Shokoohi-Yekta et al.): one warping path shared by
/// all dimensions, with squared-Euclidean local cost between time-step vectors;
/// returns the square root of the optimal path cost (M12). `band` restricts warping to
/// a Sakoe-Chiba band of that half-width; band < 0 means unconstrained.
double DtwDistance(const Matrix& a, const Matrix& b, int64_t band = -1);

/// Multivariate *independent* DTW (the other strategy in the paper's cited
/// Shokoohi-Yekta et al. study, which shows the right choice is data-dependent):
/// each dimension warps on its own path; returns sqrt of the summed per-dimension
/// path costs, so it equals DtwDistance exactly when N = 1.
double DtwIndependent(const Matrix& a, const Matrix& b, int64_t band = -1);

/// Frechet distance between Gaussians fit to two embedding sets (rows are
/// observations): ||mu1-mu2||^2 + Tr(C1 + C2 - 2 (C1 C2)^{1/2}). This is the FID
/// formula behind Contextual-FID (M3). Covariances get a small diagonal ridge for
/// numerical stability, as standard FID implementations do.
StatusOr<double> FrechetDistance(const Matrix& embeddings_a, const Matrix& embeddings_b,
                                 double ridge = 1e-6);

/// The Frechet core FrechetDistance ends in, for Gaussians already given as
/// (mean, covariance): the streaming FGD state passes its Welford moments here.
/// `ridge` is added to both covariance diagonals.
StatusOr<double> FrechetFromMoments(const std::vector<double>& mean_a, Matrix cov_a,
                                    const std::vector<double>& mean_b, Matrix cov_b,
                                    double ridge = 1e-6);

/// Squared Euclidean distances between all row pairs of `x`: an (n x n) block with
/// a zero diagonal. Each pair's kernels::SquaredDistance is computed once, in the
/// upper triangle, and mirrored; the kernel is symmetric bit for bit, so the block
/// equals computing every entry in place. MMD's within-set blocks and t-SNE's input
/// affinities both come from here.
Matrix PairwiseSquaredDistances(const Matrix& x);

/// Squared Euclidean distances from every row of `a` to every row of `b`: entry
/// (i, j) of the (n x m) block is kernels::SquaredDistance(a_i, b_j).
Matrix CrossSquaredDistances(const Matrix& a, const Matrix& b);

/// Unbiased squared Maximum Mean Discrepancy with an RBF kernel between two sets of
/// row vectors. `gamma <= 0` selects the median heuristic. RGAN's training objective
/// was motivated by MMD; exposed here for analysis and tests. Builds the three
/// squared-distance blocks and calls RbfMmdFromDistances.
double RbfMmd(const Matrix& a, const Matrix& b, double gamma = -1.0);

/// RbfMmd's statistic over given squared-distance blocks: `d_aa` (n x n) and `d_bb`
/// (m x m) from PairwiseSquaredDistances, `d_ab` (n x m) from CrossSquaredDistances.
/// `gamma <= 0` takes the median of `d_ab`. A caller holding a fixed set's block
/// (the streaming MMD state's reference) passes it here instead of recomputing it.
double RbfMmdFromDistances(const Matrix& d_aa, const Matrix& d_bb, const Matrix& d_ab,
                           double gamma);

}  // namespace tsg::distance

#endif  // TSG_DISTANCE_DISTANCE_H_
