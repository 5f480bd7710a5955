#ifndef TSG_STATS_DISTRIBUTIONS_H_
#define TSG_STATS_DISTRIBUTIONS_H_

namespace tsg::stats {

/// Regularized lower incomplete gamma P(a, x) (series + continued fraction).
double RegularizedGammaP(double a, double x);

/// Regularized incomplete beta I_x(a, b) (continued fraction; Numerical-Recipes form).
double RegularizedIncompleteBeta(double a, double b, double x);

/// Chi-square distribution CDF with k degrees of freedom.
double ChiSquareCdf(double x, double k);

/// Upper tail of the chi-square distribution: P(X >= x).
double ChiSquareSf(double x, double k);

/// Student-t two-sided tail probability: P(|T| >= t) with `df` degrees of freedom.
double StudentTTwoSidedSf(double t, double df);

}  // namespace tsg::stats

#endif  // TSG_STATS_DISTRIBUTIONS_H_
