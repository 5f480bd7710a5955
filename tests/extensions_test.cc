// Tests for the extension features: TRTS scheme, MMD measure, PCA companion view,
// the §6.5 recommendation engine, and the auto-tuner.

#include <cmath>
#include <filesystem>

#include <gtest/gtest.h>

#include "core/measures.h"
#include "core/recommend.h"
#include "core/tune.h"
#include "core/visualize.h"
#include "data/simulators.h"
#include "methods/factory.h"

namespace tsg {
namespace {

using core::Dataset;

Dataset Sine(int64_t count, int64_t l = 16, int64_t n = 3, uint64_t seed = 3) {
  return Dataset("sine", data::SineBenchmark(count, l, n, seed));
}

// ---- TRTS scheme. ----

TEST(TrtsTest, NameReflectsScheme) {
  core::PredictiveScore::Options options;
  options.scheme = core::TstrScheme::kTrts;
  core::PredictiveScore ps(core::PredictiveScore::Mode::kNextStep, options);
  EXPECT_EQ(ps.name(), "PS[TRTS]");
  core::PredictiveScore tstr(core::PredictiveScore::Mode::kNextStep);
  EXPECT_EQ(tstr.name(), "PS");
}

TEST(TrtsTest, BothSchemesEvaluateFinite) {
  const Dataset real = Sine(40), gen = Sine(40, 16, 3, 4);
  core::MeasureContext ctx;
  ctx.real = &real;
  ctx.real_test = &real;
  ctx.generated = &gen;
  ctx.seed = 1;
  core::PredictiveScore::Options trts_options;
  trts_options.epochs = 2;
  trts_options.scheme = core::TstrScheme::kTrts;
  core::PredictiveScore::Options tstr_options;
  tstr_options.epochs = 2;
  const double trts =
      core::PredictiveScore(core::PredictiveScore::Mode::kNextStep, trts_options)
          .Evaluate(ctx)
          .value();
  const double tstr =
      core::PredictiveScore(core::PredictiveScore::Mode::kNextStep, tstr_options)
          .Evaluate(ctx)
          .value();
  EXPECT_TRUE(std::isfinite(trts));
  EXPECT_TRUE(std::isfinite(tstr));
}

// ---- MMD measure. ----

TEST(MmdMeasureTest, IdenticalNearZeroShiftedLarger) {
  const Dataset real = Sine(60);
  Dataset shifted;
  for (const auto& s : real.samples()) {
    auto m = s;
    for (int64_t i = 0; i < m.size(); ++i) m[i] = m[i] * 0.4 + 0.55;
    shifted.Add(m);
  }
  core::MeasureContext same, diff;
  same.real = diff.real = &real;
  same.generated = &real;
  diff.generated = &shifted;
  core::MmdMeasure mmd;
  // The unbiased estimator can dip slightly below zero on identical sets (the
  // cross-term keeps its diagonal); it must still sit near zero and far below the
  // shifted set's value.
  const double same_value = mmd.Evaluate(same).value();
  EXPECT_NEAR(same_value, 0.0, 0.05);
  EXPECT_GT(mmd.Evaluate(diff).value(), same_value + 0.05);
}

// ---- PCA companion view. ----

TEST(PcaViewTest, ProducedAlongsideTsne) {
  const Dataset real = Sine(30), gen = Sine(30, 16, 3, 9);
  core::VisualizeOptions options;
  options.max_samples_per_set = 30;
  options.tsne.iterations = 30;
  const auto vis = core::Visualize(real, gen, options);
  EXPECT_EQ(vis.pca_points.rows(), 60);
  EXPECT_EQ(vis.pca_points.cols(), 2);
  EXPECT_GE(vis.pca_overlap, 0.0);
  EXPECT_LE(vis.pca_overlap, 1.0);

  const std::string prefix =
      (std::filesystem::temp_directory_path() / "tsg_pca_view").string();
  ASSERT_TRUE(core::WriteVisualization(prefix, vis).ok());
  EXPECT_TRUE(std::filesystem::exists(prefix + "_pca.csv"));
  for (const char* suffix : {"_tsne.csv", "_pca.csv", "_density.csv"}) {
    std::filesystem::remove(prefix + suffix);
  }
}

// ---- Recommendation engine. ----

TEST(RecommendTest, ProfileCapturesShape) {
  const Dataset train = Sine(200, 24, 5);
  const auto profile = core::ProfileDataset(train);
  EXPECT_EQ(profile.num_samples, 200);
  EXPECT_EQ(profile.seq_len, 24);
  EXPECT_EQ(profile.num_features, 5);
  EXPECT_TRUE(profile.small_data);
  EXPECT_FALSE(profile.high_dimensional);
  EXPECT_FALSE(profile.long_sequence);
  EXPECT_GT(profile.mean_abs_acf, 0.0);
}

TEST(RecommendTest, VaeFamilyAlwaysFirst) {
  core::DatasetProfile profile;
  profile.num_samples = 1000;
  const auto rec = core::Recommend(profile, core::ApplicationGoal::kGeneral);
  ASSERT_GE(rec.methods.size(), 2u);
  EXPECT_EQ(rec.methods[0], "TimeVAE");
  EXPECT_EQ(rec.methods[1], "LS4");
}

TEST(RecommendTest, ForecastingAddsFourierFlowAndAcd) {
  core::DatasetProfile profile;
  profile.num_samples = 1000;
  const auto rec = core::Recommend(profile, core::ApplicationGoal::kForecasting);
  EXPECT_NE(std::find(rec.methods.begin(), rec.methods.end(), "FourierFlow"),
            rec.methods.end());
  ASSERT_FALSE(rec.measures.empty());
  EXPECT_EQ(rec.measures[0], "ACD");
}

TEST(RecommendTest, HighDimensionalAddsCosciGan) {
  core::DatasetProfile profile;
  profile.num_features = 28;
  profile.high_dimensional = true;
  profile.num_samples = 1000;
  const auto rec = core::Recommend(profile, core::ApplicationGoal::kGeneral);
  EXPECT_NE(std::find(rec.methods.begin(), rec.methods.end(), "COSCI-GAN"),
            rec.methods.end());
}

TEST(RecommendTest, SmallDataPrefersSingleDaLeaders) {
  core::DatasetProfile profile;
  profile.num_samples = 100;
  profile.small_data = true;
  const auto rec = core::Recommend(profile, core::ApplicationGoal::kGeneral);
  EXPECT_NE(std::find(rec.methods.begin(), rec.methods.end(), "RTSGAN"),
            rec.methods.end());
  // TimeVQVAE only enters with ample data.
  EXPECT_EQ(std::find(rec.methods.begin(), rec.methods.end(), "TimeVQVAE"),
            rec.methods.end());
}

TEST(RecommendTest, ClusteringPrefersDistances) {
  core::DatasetProfile profile;
  const auto rec = core::Recommend(profile, core::ApplicationGoal::kClustering);
  ASSERT_GE(rec.measures.size(), 2u);
  EXPECT_EQ(rec.measures[0], "ED");
  EXPECT_EQ(rec.measures[1], "DTW");
}

// ---- Auto-tuner. ----

TEST(TuneTest, PicksWorkingCandidateAndReportsTrials) {
  const Dataset train = Sine(48, 16, 2);
  const Dataset validation = Sine(24, 16, 2, 8);
  auto factory = [] {
    return std::move(methods::CreateMethod("TimeVAE").value());
  };
  auto objective = [](const Dataset& reference, const Dataset& generated) {
    core::MeasureContext ctx;
    ctx.real = &reference;
    ctx.generated = &generated;
    return core::MarginalDistributionDifference().Evaluate(ctx).value();
  };
  core::TuneOptions options;
  options.rungs = 2;
  options.initial_epoch_scale = 0.02;
  const auto result = core::TuneMethod(factory, core::DefaultCandidates(1), train,
                                       validation, objective, options);
  EXPECT_LT(result.best_score, 1e100);
  EXPECT_FALSE(result.trials.empty());
  EXPECT_FALSE(result.best.label.empty());
}

TEST(TuneTest, DefaultCandidateGridShape) {
  const auto candidates = core::DefaultCandidates(7);
  EXPECT_EQ(candidates.size(), 6u);  // 3 batch sizes x 2 restarts.
}

}  // namespace
}  // namespace tsg
