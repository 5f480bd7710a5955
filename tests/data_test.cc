#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "data/simulators.h"
#include "stats/descriptive.h"

namespace tsg::data {
namespace {

SimulatorOptions Quick() {
  SimulatorOptions options;
  options.scale = 0.02;
  options.min_windows = 128;
  return options;
}

class SimulatorTest : public ::testing::TestWithParam<DatasetId> {};

TEST_P(SimulatorTest, ShapeMatchesSpec) {
  const PaperStats stats = GetPaperStats(GetParam());
  const RawSeries raw = Simulate(GetParam(), Quick());
  EXPECT_EQ(raw.values.cols(), stats.n);
  EXPECT_EQ(raw.window_length, stats.l);
  // L = R' + l - 1 with R' in [min(128, R), R].
  const int64_t windows = raw.values.rows() - stats.l + 1;
  EXPECT_GE(windows, std::min<int64_t>(128, stats.r));
  EXPECT_LE(windows, stats.r);
  EXPECT_EQ(raw.domain, std::string(stats.domain));
  EXPECT_EQ(raw.name, std::string(DatasetName(GetParam())));
}

TEST_P(SimulatorTest, DeterministicForSameOptions) {
  const RawSeries a = Simulate(GetParam(), Quick());
  const RawSeries b = Simulate(GetParam(), Quick());
  EXPECT_TRUE(linalg::AllClose(a.values, b.values));
}

TEST_P(SimulatorTest, DifferentSeedsDiffer) {
  SimulatorOptions other = Quick();
  other.seed = 999;
  const RawSeries a = Simulate(GetParam(), Quick());
  const RawSeries b = Simulate(GetParam(), other);
  EXPECT_FALSE(linalg::AllClose(a.values, b.values, 1e-9));
}

TEST_P(SimulatorTest, ValuesAreFiniteAndVarying) {
  const RawSeries raw = Simulate(GetParam(), Quick());
  for (int64_t j = 0; j < raw.values.cols(); ++j) {
    std::vector<double> col;
    for (int64_t t = 0; t < raw.values.rows(); ++t) {
      ASSERT_TRUE(std::isfinite(raw.values(t, j)));
      col.push_back(raw.values(t, j));
    }
    EXPECT_GT(stats::Variance(col), 0.0) << "constant feature " << j;
  }
}

TEST_P(SimulatorTest, FullScaleMatchesPaperR) {
  SimulatorOptions full = Quick();
  full.scale = 1.0;
  const PaperStats stats = GetPaperStats(GetParam());
  // Only check the cheap datasets at full scale.
  if (stats.r > 20000) return;
  const RawSeries raw = Simulate(GetParam(), full);
  EXPECT_EQ(raw.values.rows() - stats.l + 1, stats.r);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, SimulatorTest,
                         ::testing::ValuesIn(AllDatasets()),
                         [](const ::testing::TestParamInfo<DatasetId>& info) {
                           return std::string(DatasetName(info.param));
                         });

TEST(DatasetListTest, TenDatasetsInPaperOrder) {
  const auto ids = AllDatasets();
  ASSERT_EQ(ids.size(), 10u);
  EXPECT_STREQ(DatasetName(ids[0]), "DLG");
  EXPECT_STREQ(DatasetName(ids[9]), "Boiler");
}

TEST(DatasetListTest, PaperStatsMatchTable3) {
  EXPECT_EQ(GetPaperStats(DatasetId::kDlg).r, 246);
  EXPECT_EQ(GetPaperStats(DatasetId::kDlg).l, 14);
  EXPECT_EQ(GetPaperStats(DatasetId::kDlg).n, 20);
  EXPECT_EQ(GetPaperStats(DatasetId::kBoiler).r, 80935);
  EXPECT_EQ(GetPaperStats(DatasetId::kBoiler).l, 192);
  EXPECT_EQ(GetPaperStats(DatasetId::kBoiler).n, 11);
  EXPECT_EQ(GetPaperStats(DatasetId::kEeg).l, 128);
  EXPECT_EQ(GetPaperStats(DatasetId::kAir).l, 168);
}

TEST(DomainTest, DaDatasetsHaveDomainLabels) {
  EXPECT_EQ(DomainLabels(DatasetId::kHapt).size(), 6u);
  EXPECT_EQ(DomainLabels(DatasetId::kAir).size(), 4u);
  EXPECT_EQ(DomainLabels(DatasetId::kBoiler).size(), 3u);
  EXPECT_TRUE(DomainLabels(DatasetId::kStock).empty());
  EXPECT_EQ(DomainLabels(DatasetId::kHapt)[0], "User14");
  EXPECT_EQ(DomainLabels(DatasetId::kAir)[0], "TJ");
}

TEST(DomainTest, DifferentDomainsProduceDifferentSeries) {
  for (DatasetId id : {DatasetId::kHapt, DatasetId::kAir, DatasetId::kBoiler}) {
    SimulatorOptions a = Quick(), b = Quick();
    a.domain_index = 0;
    b.domain_index = 1;
    const RawSeries sa = Simulate(id, a);
    const RawSeries sb = Simulate(id, b);
    // Domains must differ in distribution, not just noise: compare feature means.
    double max_mean_gap = 0.0;
    for (int64_t j = 0; j < sa.values.cols(); ++j) {
      double ma = 0, mb = 0;
      for (int64_t t = 0; t < sa.values.rows(); ++t) ma += sa.values(t, j);
      for (int64_t t = 0; t < sb.values.rows(); ++t) mb += sb.values(t, j);
      ma /= static_cast<double>(sa.values.rows());
      mb /= static_cast<double>(sb.values.rows());
      max_mean_gap = std::max(max_mean_gap, std::fabs(ma - mb));
    }
    EXPECT_GT(max_mean_gap, 1e-3) << DatasetName(id);
  }
}

TEST(DlgTest, MarginalIsBimodal) {
  // DLG's defining property: game-day surges create a second mode well above the
  // baseline. Check that values split into two populated clusters.
  SimulatorOptions options = Quick();
  options.scale = 1.0;
  const RawSeries raw = Simulate(DatasetId::kDlg, options);
  std::vector<double> values;
  for (int64_t t = 0; t < raw.values.rows(); ++t) values.push_back(raw.values(t, 0));
  const double mid = 0.5 * (stats::Min(values) + stats::Max(values));
  int64_t below = 0, above = 0;
  for (double v : values) (v < mid ? below : above)++;
  EXPECT_GT(below, static_cast<int64_t>(values.size()) / 10);
  EXPECT_GT(above, static_cast<int64_t>(values.size()) / 20);
}

TEST(SineBenchmarkTest, ShapeAndRange) {
  const auto samples = SineBenchmark(20, 24, 5, 1);
  ASSERT_EQ(samples.size(), 20u);
  for (const auto& s : samples) {
    EXPECT_EQ(s.rows(), 24);
    EXPECT_EQ(s.cols(), 5);
    for (int64_t i = 0; i < s.size(); ++i) {
      EXPECT_GE(s[i], 0.0);
      EXPECT_LE(s[i], 1.0);
    }
  }
}

TEST(SineBenchmarkTest, Deterministic) {
  const auto a = SineBenchmark(5, 24, 5, 7);
  const auto b = SineBenchmark(5, 24, 5, 7);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(linalg::AllClose(a[i], b[i]));
}

TEST(SineBenchmarkTest, SamplesAreSinusoidal) {
  // Each column is a clean sinusoid in [0,1]: smooth and with mean near 0.5 over a
  // long horizon.
  const auto samples = SineBenchmark(3, 125, 5, 9);
  for (const auto& s : samples) {
    for (int64_t j = 0; j < s.cols(); ++j) {
      double mean = 0.0;
      for (int64_t t = 0; t < s.rows(); ++t) mean += s(t, j);
      mean /= static_cast<double>(s.rows());
      EXPECT_NEAR(mean, 0.5, 0.25);
    }
  }
}

}  // namespace
}  // namespace tsg::data
