#include <cmath>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/histogram.h"
#include "stats/kde.h"
#include "stats/rank_tests.h"

namespace tsg::stats {
namespace {

TEST(MomentsTest, KnownSample) {
  const Moments m = ComputeMoments({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(m.mean, 5.0);
  EXPECT_DOUBLE_EQ(m.variance, 4.0);
  EXPECT_DOUBLE_EQ(m.stddev, 2.0);
}

TEST(MomentsTest, SymmetricSampleHasZeroSkewness) {
  const Moments m = ComputeMoments({-2, -1, 0, 1, 2});
  EXPECT_NEAR(m.skewness, 0.0, 1e-12);
}

TEST(MomentsTest, RightSkewIsPositive) {
  const Moments m = ComputeMoments({1, 1, 1, 1, 10});
  EXPECT_GT(m.skewness, 1.0);
}

TEST(MomentsTest, GaussianSampleMomentsMatchTheory) {
  Rng rng(1);
  std::vector<double> x(200000);
  for (auto& v : x) v = rng.Normal();
  const Moments m = ComputeMoments(x);
  EXPECT_NEAR(m.mean, 0.0, 0.02);
  EXPECT_NEAR(m.variance, 1.0, 0.03);
  EXPECT_NEAR(m.skewness, 0.0, 0.05);
  EXPECT_NEAR(m.kurtosis, 3.0, 0.1);
}

TEST(MomentsTest, UniformKurtosisIsNineFifths) {
  Rng rng(2);
  std::vector<double> x(200000);
  for (auto& v : x) v = rng.Uniform();
  EXPECT_NEAR(ComputeMoments(x).kurtosis, 1.8, 0.05);
}

TEST(MomentsTest, ConstantSampleIsSafe) {
  const Moments m = ComputeMoments({5, 5, 5});
  EXPECT_DOUBLE_EQ(m.variance, 0.0);
  EXPECT_DOUBLE_EQ(m.skewness, 0.0);
  EXPECT_DOUBLE_EQ(m.kurtosis, 0.0);
}

TEST(DescriptiveTest, BasicAggregates) {
  const std::vector<double> x = {3, 1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(Mean(x), 2.8);
  EXPECT_DOUBLE_EQ(Min(x), 1.0);
  EXPECT_DOUBLE_EQ(Max(x), 5.0);
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4, 5}), 3.0);
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5);
}

TEST(DescriptiveTest, SampleStddevUsesBesselCorrection) {
  EXPECT_NEAR(SampleStddev({2, 4}), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(SampleStddev({7}), 0.0);
}

TEST(HistogramTest, CountsAndProbabilities) {
  Histogram h(0.0, 10.0, 5);
  h.AddAll({1, 3, 3, 7, 9});
  const auto p = h.Probabilities();
  EXPECT_DOUBLE_EQ(p[0], 0.2);  // [0,2): {1}
  EXPECT_DOUBLE_EQ(p[1], 0.4);  // [2,4): {3,3}
  EXPECT_DOUBLE_EQ(p[3], 0.2);  // [6,8): {7}
  EXPECT_DOUBLE_EQ(p[4], 0.2);  // [8,10]: {9}
}

TEST(HistogramTest, OutOfRangeClampsToEndBins) {
  Histogram h(0.0, 1.0, 2);
  h.Add(-5.0);
  h.Add(99.0);
  const auto p = h.Probabilities();
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
}

TEST(HistogramTest, IdenticalSamplesHaveZeroMdd) {
  Rng rng(3);
  std::vector<double> sample(1000);
  for (auto& v : sample) v = rng.Uniform();
  Histogram a = Histogram::FitRange(sample, 20);
  Histogram b(0.0, 1.0, 20);
  a.AddAll(sample);
  // Build b with the same edges via FitRange on the same sample.
  Histogram b2 = Histogram::FitRange(sample, 20);
  b2.AddAll(sample);
  EXPECT_DOUBLE_EQ(a.MeanAbsDiff(b2), 0.0);
}

TEST(HistogramTest, ShiftedDistributionsDiffer) {
  Rng rng(4);
  Histogram a(0.0, 2.0, 10), b(0.0, 2.0, 10);
  for (int i = 0; i < 2000; ++i) {
    a.Add(rng.Uniform());
    b.Add(rng.Uniform() + 1.0);
  }
  EXPECT_GT(a.MeanAbsDiff(b), 0.1);
}

TEST(HistogramTest, DegenerateRangeIsSafe) {
  Histogram h(1.0, 1.0, 4);
  h.Add(1.0);
  EXPECT_EQ(h.total_count(), 1);
}

TEST(KdeTest, IntegratesToOne) {
  Rng rng(5);
  std::vector<double> sample(500);
  for (auto& v : sample) v = rng.Normal();
  KernelDensity kde(sample);
  const auto grid = kde.EvaluateGrid(-6, 6, 600);
  double integral = 0.0;
  for (double v : grid) integral += v * 12.0 / 599.0;
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(KdeTest, PeaksNearMode) {
  std::vector<double> sample(200, 2.0);
  for (int i = 0; i < 100; ++i) sample.push_back(2.0 + 0.01 * i);
  KernelDensity kde(sample);
  EXPECT_GT(kde.Evaluate(2.0), kde.Evaluate(5.0));
}

TEST(KdeTest, L1DistanceZeroForIdenticalSamples) {
  Rng rng(6);
  std::vector<double> sample(300);
  for (auto& v : sample) v = rng.Normal();
  KernelDensity a(sample), b(sample);
  EXPECT_NEAR(KdeL1Distance(a, b, -5, 5), 0.0, 1e-12);
}

TEST(KdeTest, L1DistanceSeparatesShiftedSamples) {
  Rng rng(7);
  std::vector<double> s1(300), s2(300);
  for (auto& v : s1) v = rng.Normal();
  for (auto& v : s2) v = rng.Normal() + 3.0;
  KernelDensity a(s1), b(s2);
  EXPECT_GT(KdeL1Distance(a, b, -6, 9), 1.0);
}

// ---- Special functions & distributions, validated against known table values. ----

TEST(DistributionsTest, GammaPBoundaries) {
  EXPECT_DOUBLE_EQ(RegularizedGammaP(2.0, 0.0), 0.0);
  EXPECT_NEAR(RegularizedGammaP(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-10);
  EXPECT_NEAR(RegularizedGammaP(0.5, 100.0), 1.0, 1e-10);
}

TEST(DistributionsTest, ChiSquareKnownValues) {
  // chi2 CDF at its median and known quantiles (values from standard tables).
  EXPECT_NEAR(ChiSquareCdf(3.841, 1.0), 0.95, 1e-3);
  EXPECT_NEAR(ChiSquareCdf(5.991, 2.0), 0.95, 1e-3);
  EXPECT_NEAR(ChiSquareCdf(16.919, 9.0), 0.95, 1e-3);
  EXPECT_NEAR(ChiSquareSf(16.919, 9.0), 0.05, 1e-3);
}

TEST(DistributionsTest, IncompleteBetaSymmetry) {
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  for (double x : {0.1, 0.3, 0.5, 0.9}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(2.0, 3.0, x),
                1.0 - RegularizedIncompleteBeta(3.0, 2.0, 1.0 - x), 1e-10);
  }
}

TEST(DistributionsTest, StudentTKnownValues) {
  // Two-sided critical values: t_{0.975, 10} = 2.228, t_{0.975, 5} = 2.571.
  EXPECT_NEAR(StudentTTwoSidedSf(2.228, 10.0), 0.05, 1e-3);
  EXPECT_NEAR(StudentTTwoSidedSf(2.571, 5.0), 0.05, 1e-3);
  EXPECT_NEAR(StudentTTwoSidedSf(0.0, 7.0), 1.0, 1e-12);
}

TEST(RankTest, SimpleAscendingRanks) {
  const auto r = RankWithTies({30, 10, 20});
  EXPECT_DOUBLE_EQ(r[0], 3.0);
  EXPECT_DOUBLE_EQ(r[1], 1.0);
  EXPECT_DOUBLE_EQ(r[2], 2.0);
}

TEST(RankTest, TiesGetAverageRank) {
  const auto r = RankWithTies({5, 5, 1, 9});
  EXPECT_DOUBLE_EQ(r[2], 1.0);
  EXPECT_DOUBLE_EQ(r[0], 2.5);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(RankTest, DescendingOption) {
  const auto r = RankWithTies({30, 10, 20}, /*ascending=*/false);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 3.0);
}

TEST(FriedmanTest2, ClearWinnerIsSignificant) {
  // 8 blocks, 3 treatments; treatment 0 always best, 2 always worst.
  linalg::Matrix scores(8, 3);
  Rng rng(8);
  for (int64_t i = 0; i < 8; ++i) {
    scores(i, 0) = 1.0 + 0.01 * rng.Uniform();
    scores(i, 1) = 2.0 + 0.01 * rng.Uniform();
    scores(i, 2) = 3.0 + 0.01 * rng.Uniform();
  }
  const FriedmanResult result = FriedmanTest(scores);
  EXPECT_LT(result.p_value, 0.001);
  EXPECT_DOUBLE_EQ(result.average_ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(result.average_ranks[2], 3.0);
  // No-ties statistic: 12/(b k(k+1)) sum Rj^2 - 3 b (k+1) = 16 for perfect ordering.
  EXPECT_NEAR(result.statistic, 16.0, 1e-9);
}

TEST(FriedmanTest2, RandomScoresNotSignificant) {
  Rng rng(9);
  linalg::Matrix scores(10, 4);
  for (int64_t i = 0; i < scores.size(); ++i) scores[i] = rng.Uniform();
  const FriedmanResult result = FriedmanTest(scores);
  EXPECT_GT(result.p_value, 0.01);
}

TEST(FriedmanTest2, AllTiedGivesPValueOne) {
  const linalg::Matrix scores = {{1, 1, 1}, {2, 2, 2}, {3, 3, 3}};
  const FriedmanResult result = FriedmanTest(scores);
  EXPECT_DOUBLE_EQ(result.p_value, 1.0);
}

TEST(FriedmanTest2, AllTiedStatisticIsZeroAndFinite) {
  const linalg::Matrix scores = {{1, 1, 1}, {2, 2, 2}, {3, 3, 3}};
  const FriedmanResult result = FriedmanTest(scores);
  EXPECT_DOUBLE_EQ(result.statistic, 0.0);
  for (double r : result.average_ranks) EXPECT_DOUBLE_EQ(r, 2.0);
}

TEST(ConoverTest, AllTiedScoresGiveNoSeparation) {
  // Every treatment identical: the Conover denominator is zero; the p-values must
  // come out as 1 everywhere (no NaN from 0/0).
  const linalg::Matrix scores = {{1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {4, 4, 4}};
  const FriedmanResult fr = FriedmanTest(scores);
  const linalg::Matrix p = ConoverFriedmanPValues(fr);
  for (int64_t i = 0; i < p.size(); ++i) {
    EXPECT_FALSE(std::isnan(p[i])) << i;
    EXPECT_DOUBLE_EQ(p[i], 1.0) << i;
  }
}

TEST(ConoverTest, IdenticalRankPatternsSeparatePerfectly) {
  // Every block ranks the treatments the same way: zero within-pattern variance.
  // Differing rank sums are then perfectly consistent evidence (p -> 0), and the
  // degenerate-denominator path must not divide by zero.
  const linalg::Matrix scores = {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 3, 5}};
  const FriedmanResult fr = FriedmanTest(scores);
  const linalg::Matrix p = ConoverFriedmanPValues(fr);
  EXPECT_DOUBLE_EQ(p(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(p(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(p(0, 0), 1.0);
  for (int64_t i = 0; i < p.size(); ++i) EXPECT_FALSE(std::isnan(p[i])) << i;
}

TEST(ConoverTest, SeparatesExtremesNotNeighbors) {
  // Treatments 0 and 1 are close; treatment 2 is far worse.
  Rng rng(10);
  linalg::Matrix scores(12, 3);
  for (int64_t i = 0; i < 12; ++i) {
    const double a = rng.Uniform();
    // Treatments 0 and 1 trade wins evenly; treatment 2 is always far worse.
    const double delta = (i % 2 == 0) ? 0.05 : -0.05;
    scores(i, 0) = a;
    scores(i, 1) = a + delta;
    scores(i, 2) = a + 10.0;
  }
  const FriedmanResult fr = FriedmanTest(scores);
  const linalg::Matrix p = ConoverFriedmanPValues(fr);
  EXPECT_LT(p(0, 2), 0.01);
  EXPECT_LT(p(1, 2), 0.01);
  EXPECT_GT(p(0, 1), 0.05);
  // Symmetry and unit diagonal.
  EXPECT_DOUBLE_EQ(p(0, 2), p(2, 0));
  EXPECT_DOUBLE_EQ(p(1, 1), 1.0);
}

TEST(CriticalDifferenceTest, TiersFollowSignificance) {
  Rng rng(11);
  linalg::Matrix scores(12, 4);
  for (int64_t i = 0; i < 12; ++i) {
    const double base = rng.Uniform();
    // Treatments 0 and 1 trade wins evenly (same tier); 2 and 3 are clearly worse.
    const double delta = (i % 2 == 0) ? 0.01 : -0.01;
    scores(i, 0) = base;
    scores(i, 1) = base + delta;
    scores(i, 2) = base + 10.0;
    scores(i, 3) = base + 20.0;
  }
  const FriedmanResult fr = FriedmanTest(scores);
  const linalg::Matrix p = ConoverFriedmanPValues(fr);
  const std::vector<int> tiers = CriticalDifferenceTiers(fr, p, 0.05);
  EXPECT_EQ(tiers[0], tiers[1]);  // Indistinguishable pair shares a tier.
  EXPECT_GT(tiers[2], tiers[0]);
  EXPECT_GT(tiers[3], tiers[2]);
}

}  // namespace
}  // namespace tsg::stats

namespace tsg::stats {
namespace {

TEST(FriedmanTextbookTest, MatchesHandComputedStatistic) {
  // Classic worked example: 4 blocks, 3 treatments, no ties.
  //   Block ranks: (1,2,3), (1,3,2), (1,2,3), (1,2,3) -> R = (4, 9, 11).
  // chi2 = 12/(4*3*4) * (16+81+121) - 3*4*4 = 0.25*218 - 48 = 6.5.
  const linalg::Matrix scores = {{1.0, 2.0, 3.0},
                                 {1.0, 3.0, 2.0},
                                 {1.0, 2.0, 3.0},
                                 {1.0, 2.0, 3.0}};
  const FriedmanResult result = FriedmanTest(scores);
  EXPECT_DOUBLE_EQ(result.rank_sums[0], 4.0);
  EXPECT_DOUBLE_EQ(result.rank_sums[1], 9.0);
  EXPECT_DOUBLE_EQ(result.rank_sums[2], 11.0);
  EXPECT_NEAR(result.statistic, 6.5, 1e-9);
  // p = P(chi2_2 >= 6.5) = exp(-6.5/2) ~ 0.0388.
  EXPECT_NEAR(result.p_value, std::exp(-3.25), 1e-6);
}

TEST(FriedmanTextbookTest, TieCorrectionReducesStatistic) {
  // Introducing ties within blocks must not increase the statistic relative to
  // breaking the ties consistently.
  const linalg::Matrix tied = {{1.0, 1.0, 3.0}, {1.0, 1.0, 3.0}, {1.0, 1.0, 3.0},
                               {1.0, 1.0, 3.0}};
  const linalg::Matrix untied = {{1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}, {1.0, 2.0, 3.0},
                                 {1.0, 2.0, 3.0}};
  EXPECT_LE(FriedmanTest(tied).statistic, FriedmanTest(untied).statistic + 1e-9);
}

}  // namespace
}  // namespace tsg::stats
