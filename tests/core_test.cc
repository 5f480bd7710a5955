#include <cmath>
#include <filesystem>

#include <gtest/gtest.h>

#include "core/da.h"
#include "core/dataset.h"
#include "core/harness.h"
#include "core/measures.h"
#include "core/preprocess.h"
#include "core/ranking.h"
#include "core/taxonomy.h"
#include "core/visualize.h"
#include "data/simulators.h"
#include "obs/metrics.h"

namespace tsg::core {
namespace {

Dataset SineDataset(int64_t count, int64_t l = 16, int64_t n = 3,
                    uint64_t seed = 3) {
  return Dataset("sine", data::SineBenchmark(count, l, n, seed));
}

// ---- Dataset container. ----

TEST(DatasetTest, ShapeAccessors) {
  const Dataset ds = SineDataset(10, 24, 5);
  EXPECT_EQ(ds.num_samples(), 10);
  EXPECT_EQ(ds.seq_len(), 24);
  EXPECT_EQ(ds.num_features(), 5);
  EXPECT_FALSE(ds.empty());
  EXPECT_TRUE(Dataset().empty());
}

TEST(DatasetTest, HeadAndSelect) {
  const Dataset ds = SineDataset(10);
  EXPECT_EQ(ds.Head(3).num_samples(), 3);
  EXPECT_EQ(ds.Head(99).num_samples(), 10);
  const Dataset sel = ds.Select({7, 1});
  EXPECT_TRUE(linalg::AllClose(sel.sample(0), ds.sample(7)));
  EXPECT_TRUE(linalg::AllClose(sel.sample(1), ds.sample(1)));
}

TEST(DatasetTest, SplitNineToOne) {
  const Dataset ds = SineDataset(100);
  const auto [train, test] = ds.Split(0.9);
  EXPECT_EQ(train.num_samples(), 90);
  EXPECT_EQ(test.num_samples(), 10);
}

TEST(DatasetTest, ShuffledIsPermutation) {
  const Dataset ds = SineDataset(20);
  Rng rng(1);
  const Dataset shuffled = ds.Shuffled(rng);
  EXPECT_EQ(shuffled.num_samples(), 20);
  double orig_sum = 0.0, shuf_sum = 0.0;
  for (int64_t i = 0; i < 20; ++i) {
    orig_sum += ds.sample(i).Sum();
    shuf_sum += shuffled.sample(i).Sum();
  }
  EXPECT_NEAR(orig_sum, shuf_sum, 1e-9);
}

TEST(DatasetTest, FlattenLayout) {
  Dataset ds;
  ds.Add(linalg::Matrix({{1, 2}, {3, 4}}));
  const linalg::Matrix flat = ds.Flatten();
  EXPECT_EQ(flat.rows(), 1);
  EXPECT_EQ(flat.cols(), 4);
  EXPECT_DOUBLE_EQ(flat(0, 0), 1);
  EXPECT_DOUBLE_EQ(flat(0, 1), 2);
  EXPECT_DOUBLE_EQ(flat(0, 2), 3);
  EXPECT_DOUBLE_EQ(flat(0, 3), 4);
}

TEST(DatasetTest, FeatureValueViews) {
  Dataset ds;
  ds.Add(linalg::Matrix({{1, 2}, {3, 4}}));
  ds.Add(linalg::Matrix({{5, 6}, {7, 8}}));
  const auto f0 = ds.FeatureValues(0);
  ASSERT_EQ(f0.size(), 4u);
  EXPECT_DOUBLE_EQ(f0[0], 1);
  EXPECT_DOUBLE_EQ(f0[2], 5);
  const auto at = ds.FeatureValuesAt(1, 1);
  ASSERT_EQ(at.size(), 2u);
  EXPECT_DOUBLE_EQ(at[0], 4);
  EXPECT_DOUBLE_EQ(at[1], 8);
  EXPECT_EQ(ds.AllValues().size(), 8u);
}

TEST(DatasetDeathTest, MismatchedSampleAborts) {
  Dataset ds;
  ds.Add(linalg::Matrix(4, 2));
  EXPECT_DEATH(ds.Add(linalg::Matrix(5, 2)), "TSG_CHECK");
}

// ---- Preprocessing pipeline. ----

TEST(PreprocessTest, WindowCountFollowsFormula) {
  linalg::Matrix series(100, 3);
  const auto windows = SlidingWindows(series, 24);
  EXPECT_EQ(windows.size(), 100u - 24u + 1u);
  EXPECT_EQ(windows[0].rows(), 24);
  EXPECT_EQ(windows[0].cols(), 3);
}

TEST(PreprocessTest, WindowsOverlapWithStrideOne) {
  linalg::Matrix series(10, 1);
  for (int64_t t = 0; t < 10; ++t) series(t, 0) = t;
  const auto windows = SlidingWindows(series, 4);
  EXPECT_DOUBLE_EQ(windows[0](0, 0), 0);
  EXPECT_DOUBLE_EQ(windows[1](0, 0), 1);
  EXPECT_DOUBLE_EQ(windows[6](3, 0), 9);
}

TEST(PreprocessTest, MinMaxNormalizeToUnit) {
  linalg::Matrix series = {{0, 10}, {5, 20}, {10, 30}};
  std::vector<double> mins, maxs;
  MinMaxNormalize(series, &mins, &maxs);
  EXPECT_DOUBLE_EQ(series(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(series(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(series(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(mins[1], 10.0);
  EXPECT_DOUBLE_EQ(maxs[1], 30.0);
}

TEST(PreprocessTest, ConstantFeatureMapsToZero) {
  linalg::Matrix series = {{7}, {7}, {7}};
  MinMaxNormalize(series, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(series(1, 0), 0.0);
}

TEST(PreprocessTest, FullPipelineOnSimulatedData) {
  data::SimulatorOptions sim;
  sim.scale = 0.02;
  const data::RawSeries raw = data::Simulate(data::DatasetId::kStock, sim);
  const Preprocessed pre = Preprocess(raw, PreprocessOptions());
  EXPECT_EQ(pre.window_length, 24);
  EXPECT_EQ(pre.train.seq_len(), 24);
  EXPECT_EQ(pre.train.num_features(), 6);
  // 9:1 split over R windows.
  const int64_t total = pre.train.num_samples() + pre.test.num_samples();
  EXPECT_EQ(total, raw.values.rows() - 24 + 1);
  EXPECT_NEAR(static_cast<double>(pre.train.num_samples()) / total, 0.9, 0.02);
  // Every value normalized into [0, 1].
  for (double v : pre.train.AllValues()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(PreprocessTest, AcfWindowSelectionFindsPeriod) {
  // Build a raw series with a strong period of 20.
  data::RawSeries raw;
  raw.name = "synthetic";
  raw.window_length = 24;
  raw.values = linalg::Matrix(600, 2);
  for (int64_t t = 0; t < 600; ++t) {
    raw.values(t, 0) = std::sin(2.0 * M_PI * t / 20.0);
    raw.values(t, 1) = std::cos(2.0 * M_PI * t / 20.0);
  }
  PreprocessOptions options;
  options.window_length = -1;  // ACF-based.
  const Preprocessed pre = Preprocess(raw, options);
  EXPECT_NEAR(static_cast<double>(pre.window_length), 20.0, 1.0);
}

TEST(PreprocessTest, ShuffleIsSeeded) {
  data::SimulatorOptions sim;
  sim.scale = 0.02;
  const data::RawSeries raw = data::Simulate(data::DatasetId::kStock, sim);
  const Preprocessed a = Preprocess(raw, PreprocessOptions());
  const Preprocessed b = Preprocess(raw, PreprocessOptions());
  EXPECT_TRUE(linalg::AllClose(a.train.sample(0), b.train.sample(0)));
}

// ---- Measures: the §6.3 robustness properties. ----

class IdenticalInputTest : public ::testing::Test {
 protected:
  IdenticalInputTest() : real_(SineDataset(64, 24, 5)), ctx_() {
    ctx_.real = &real_;
    ctx_.real_test = &real_;
    ctx_.generated = &real_;
    ctx_.seed = 5;
  }
  Dataset real_;
  MeasureContext ctx_;
};

TEST_F(IdenticalInputTest, DeterministicMeasuresAreExactlyZero) {
  EXPECT_DOUBLE_EQ(MarginalDistributionDifference().Evaluate(ctx_).value(), 0.0);
  EXPECT_DOUBLE_EQ(AutocorrelationDifference().Evaluate(ctx_).value(), 0.0);
  EXPECT_DOUBLE_EQ(SkewnessDifference().Evaluate(ctx_).value(), 0.0);
  EXPECT_DOUBLE_EQ(KurtosisDifference().Evaluate(ctx_).value(), 0.0);
  EXPECT_DOUBLE_EQ(EuclideanDistanceMeasure().Evaluate(ctx_).value(), 0.0);
  EXPECT_DOUBLE_EQ(DtwDistanceMeasure().Evaluate(ctx_).value(), 0.0);
}

TEST_F(IdenticalInputTest, ContextFidNearZero) {
  embed::SequenceEmbedder::Options opts;
  opts.epochs = 3;
  embed::SequenceEmbedder embedder(real_.num_features(), opts, 7);
  ASSERT_TRUE(embedder.Fit(real_.samples()).ok());
  ctx_.embedder = &embedder;
  EXPECT_NEAR(ContextFid().Evaluate(ctx_).value(), 0.0, 1e-9);
}

TEST_F(IdenticalInputTest, DiscriminativeScoreIsSmall) {
  DiscriminativeScore::Options opts;
  opts.epochs = 3;
  EXPECT_LT(DiscriminativeScore(opts).Evaluate(ctx_).value(), 0.3);
}

// A diverging post-hoc model is a kNumericalError naming the measure, the
// training phase and the epoch, never a score.
TEST_F(IdenticalInputTest, DivergedDiscriminatorIsANumericalError) {
  DiscriminativeScore::Options opts;
  opts.learning_rate = 1e308;
  const StatusOr<double> ds = DiscriminativeScore(opts).Evaluate(ctx_);
  ASSERT_FALSE(ds.ok()) << ds.value();
  EXPECT_EQ(ds.status().code(), StatusCode::kNumericalError);
  EXPECT_NE(ds.status().message().find("DS: non-finite"), std::string::npos)
      << ds.status().ToString();
  EXPECT_NE(ds.status().message().find("in classifier at epoch"), std::string::npos)
      << ds.status().ToString();
}

TEST_F(IdenticalInputTest, DivergedForecasterIsANumericalError) {
  PredictiveScore::Options opts;
  opts.learning_rate = 1e308;
  for (const auto mode : {PredictiveScore::Mode::kNextStep,
                          PredictiveScore::Mode::kEntire}) {
    const StatusOr<double> ps = PredictiveScore(mode, opts).Evaluate(ctx_);
    ASSERT_FALSE(ps.ok()) << ps.value();
    EXPECT_EQ(ps.status().code(), StatusCode::kNumericalError);
    EXPECT_NE(ps.status().message().find("PS: non-finite"), std::string::npos)
        << ps.status().ToString();
    EXPECT_NE(ps.status().message().find("in forecaster at epoch"),
              std::string::npos)
        << ps.status().ToString();
  }
}

TEST(MeasureSeparationTest, ShiftedDataScoresWorse) {
  const Dataset real = SineDataset(48, 24, 3, 1);
  Dataset shifted;
  for (const auto& s : real.samples()) {
    linalg::Matrix m = s;
    // Non-linear squashing: moves the distribution, its moments, and the values.
    for (int64_t i = 0; i < m.size(); ++i) m[i] = m[i] * m[i] * 0.5 + 0.4;
    shifted.Add(m);
  }
  MeasureContext good, bad;
  good.real = bad.real = &real;
  good.real_test = bad.real_test = &real;
  good.generated = &real;
  bad.generated = &shifted;
  EXPECT_GT(MarginalDistributionDifference().Evaluate(bad).value(),
            MarginalDistributionDifference().Evaluate(good).value());
  EXPECT_GT(EuclideanDistanceMeasure().Evaluate(bad).value(),
            EuclideanDistanceMeasure().Evaluate(good).value());
  EXPECT_GT(SkewnessDifference().Evaluate(bad).value() +
                KurtosisDifference().Evaluate(bad).value(),
            1e-3);
}

TEST(MeasureSuiteTest, SuiteHasPaperOrderAndCount) {
  const auto suite = DefaultMeasureSuite(/*include_ps_entire=*/true);
  ASSERT_EQ(suite.size(), 10u);
  EXPECT_EQ(suite[0]->name(), "DS");
  EXPECT_EQ(suite[1]->name(), "PS");
  EXPECT_EQ(suite[2]->name(), "PS(entire)");
  EXPECT_EQ(suite[3]->name(), "C-FID");
  EXPECT_EQ(suite[9]->name(), "DTW");
  const auto suite9 = DefaultMeasureSuite(false);
  EXPECT_EQ(suite9.size(), 9u);
}

TEST(MeasureSuiteTest, OnlyTstrMeasuresAreStochastic) {
  for (const auto& m : DefaultMeasureSuite(true)) {
    const bool is_tstr = m->name() == "DS" || m->name() == "PS" ||
                         m->name() == "PS(entire)";
    EXPECT_EQ(m->stochastic(), is_tstr) << m->name();
  }
}

// ---- DA scenarios. ----

TEST(DaTest, ScenarioTrainingSets) {
  DaTask task;
  task.source_train = SineDataset(20, 16, 2, 1);
  task.target_his = SineDataset(5, 16, 2, 2);
  task.target_gt = SineDataset(30, 16, 2, 3);
  task.source_label = "src";
  task.target_label = "tgt";

  EXPECT_EQ(BuildDaTrainingSet(task, DaScenario::kSingle).num_samples(), 20);
  EXPECT_EQ(BuildDaTrainingSet(task, DaScenario::kCross).num_samples(), 25);
  EXPECT_EQ(BuildDaTrainingSet(task, DaScenario::kReference).num_samples(), 5);
  EXPECT_STREQ(DaScenarioName(DaScenario::kSingle), "single");
  EXPECT_STREQ(DaScenarioName(DaScenario::kCross), "cross");
  EXPECT_STREQ(DaScenarioName(DaScenario::kReference), "reference");
}

// ---- Ranking analysis. ----

TEST(RankingTest, PerMeasureAndPerDatasetShapes) {
  std::vector<CellResult> cells;
  const std::vector<std::string> methods = {"A", "B"};
  const std::vector<std::string> datasets = {"d1", "d2", "d3"};
  const std::vector<std::string> measures = {"m1", "m2"};
  for (const auto& d : datasets) {
    for (const auto& m : measures) {
      cells.push_back({"A", d, m, 0.1, 0.0});  // A always better.
      cells.push_back({"B", d, m, 0.9, 0.0});
    }
  }
  RankingAnalysis analysis(cells, methods, datasets, measures);
  const linalg::Matrix per_measure = analysis.RankPerMeasure();
  EXPECT_EQ(per_measure.rows(), 2);
  EXPECT_EQ(per_measure.cols(), 2);
  EXPECT_DOUBLE_EQ(per_measure(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(per_measure(0, 1), 2.0);
  const linalg::Matrix per_dataset = analysis.RankPerDataset();
  EXPECT_EQ(per_dataset.rows(), 3);
  EXPECT_DOUBLE_EQ(per_dataset(2, 0), 1.0);
}

TEST(RankingTest, OverallTiersSeparateClearWinner) {
  std::vector<CellResult> cells;
  const std::vector<std::string> methods = {"good", "bad"};
  const std::vector<std::string> datasets = {"d1", "d2", "d3", "d4"};
  const std::vector<std::string> measures = {"m1", "m2", "m3"};
  Rng rng(2);
  for (const auto& d : datasets) {
    for (const auto& m : measures) {
      cells.push_back({"good", d, m, rng.Uniform(), 0.0});
      cells.push_back({"bad", d, m, 5.0 + rng.Uniform(), 0.0});
    }
  }
  RankingAnalysis analysis(cells, methods, datasets, measures);
  const auto overall = analysis.ComputeOverall();
  EXPECT_LT(overall.friedman.p_value, 0.01);
  EXPECT_LT(overall.tiers[0], overall.tiers[1]);
  const std::string diagram = analysis.RenderCriticalDifference(overall);
  EXPECT_NE(diagram.find("good"), std::string::npos);
  EXPECT_NE(diagram.find("Tier 1"), std::string::npos);
}

// ---- Harness. ----

TEST(HarnessTest, TrainingTimeBuckets) {
  EXPECT_STREQ(Harness::TrainingTimeBucket(10), "<1min");
  EXPECT_STREQ(Harness::TrainingTimeBucket(100), "<1h");
  EXPECT_STREQ(Harness::TrainingTimeBucket(10000), "<1d");
  EXPECT_STREQ(Harness::TrainingTimeBucket(1e6), ">=1d");
}

TEST(HarnessTest, EvaluateGeneratedProducesAllMeasures) {
  HarnessOptions options;
  options.stochastic_repeats = 2;
  options.embedder.epochs = 2;
  options.seed = 3;
  Harness harness(options);
  const Dataset real = SineDataset(40, 16, 2, 1);
  const Dataset gen = SineDataset(40, 16, 2, 2);
  const auto result = harness.EvaluateGenerated(real, real, gen, "sine");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& scores = result.value();
  ASSERT_EQ(scores.size(), 9u);
  for (const auto& [name, summary] : scores) {
    EXPECT_TRUE(std::isfinite(summary.mean)) << name;
    EXPECT_GE(summary.std, 0.0) << name;
  }
  // Deterministic measures report zero spread.
  for (const auto& [name, summary] : scores) {
    if (name != "DS" && name != "PS") EXPECT_DOUBLE_EQ(summary.std, 0.0) << name;
  }
}

TEST(HarnessTest, EmbedderIsCachedPerKey) {
  HarnessOptions options;
  options.embedder.epochs = 1;
  Harness harness(options);
  const Dataset real = SineDataset(20, 16, 2, 1);
  const auto a = harness.GetEmbedder("k", real);
  const auto b = harness.GetEmbedder("k", real);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST(HarnessTest, DivergedEmbedderFailsEvaluationAndIsNotCached) {
  HarnessOptions options;
  options.stochastic_repeats = 1;
  options.embedder.epochs = 2;
  options.embedder.learning_rate = 1e308;
  Harness harness(options);
  const Dataset real = SineDataset(20, 16, 2, 1);
  const Dataset gen = SineDataset(20, 16, 2, 2);
  const obs::Counter& steps =
      obs::MetricRegistry::Global().GetCounter("train.C-FID.embedder.steps");
  int64_t fit_steps[2] = {0, 0};
  for (int64_t& fitted : fit_steps) {
    const int64_t start = steps.value();
    const auto result = harness.EvaluateGenerated(real, real, gen, "sine");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kNumericalError);
    EXPECT_NE(result.status().message().find("C-FID: non-finite"),
              std::string::npos)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("in embedder at epoch"),
              std::string::npos)
        << result.status().ToString();
    fitted = steps.value() - start;
  }
  // The second call refits from scratch (the same steps up to the divergence)
  // instead of reusing the failed embedder.
  EXPECT_GT(fit_steps[0], 0);
  EXPECT_EQ(fit_steps[1], fit_steps[0]);
}

// ---- Visualization. ----

TEST(VisualizeTest, ProducesPointsAndDensities) {
  const Dataset real = SineDataset(30, 16, 2, 1);
  const Dataset gen = SineDataset(30, 16, 2, 2);
  VisualizeOptions options;
  options.max_samples_per_set = 30;
  options.tsne.iterations = 50;
  const VisualizationResult vis = Visualize(real, gen, options);
  EXPECT_EQ(vis.tsne_points.rows(), 60);
  EXPECT_EQ(vis.tsne_points.cols(), 2);
  EXPECT_EQ(vis.labels.size(), 60u);
  EXPECT_GE(vis.tsne_overlap, 0.0);
  EXPECT_LE(vis.tsne_overlap, 1.0);
  EXPECT_EQ(vis.grid.size(), 128u);
  EXPECT_GE(vis.kde_l1, 0.0);

  const std::string prefix =
      (std::filesystem::temp_directory_path() / "tsg_vis_test").string();
  ASSERT_TRUE(WriteVisualization(prefix, vis).ok());
  EXPECT_TRUE(std::filesystem::exists(prefix + "_tsne.csv"));
  EXPECT_TRUE(std::filesystem::exists(prefix + "_density.csv"));
  std::filesystem::remove(prefix + "_tsne.csv");
  std::filesystem::remove(prefix + "_density.csv");
}

TEST(VisualizeTest, IdenticalSetsMixAndMatch) {
  const Dataset real = SineDataset(40, 16, 2, 1);
  VisualizeOptions options;
  options.tsne.iterations = 120;
  const VisualizationResult vis = Visualize(real, real, options);
  // Identical clouds: KDE gap ~0 and neighborhoods well mixed.
  EXPECT_NEAR(vis.kde_l1, 0.0, 1e-9);
  EXPECT_GT(vis.tsne_overlap, 0.25);
}

// ---- Taxonomy. ----

TEST(TaxonomyTest, TableMatchesPaper) {
  const auto& tax = Taxonomy();
  EXPECT_EQ(tax.size(), 31u);
  int evaluated = 0;
  for (const auto& entry : tax) evaluated += entry.evaluated;
  EXPECT_EQ(evaluated, 10);
}

TEST(TaxonomyTest, SurveyColumnsConsistent) {
  const auto& columns = MeasureSurveyColumns();
  for (const auto& row : MeasureSurvey()) {
    EXPECT_EQ(row.uses.size(), columns.size()) << row.method;
  }
}

}  // namespace
}  // namespace tsg::core

namespace tsg::core {
namespace {

/// Minimal TsgMethod for interface-contract tests: memorizes the training windows
/// and resamples them with replacement (a bootstrap "generator").
class BootstrapMethod : public TsgMethod {
 public:
  Status Fit(const Dataset& train, const FitOptions& options) override {
    (void)options;
    if (train.empty()) return Status::InvalidArgument("empty");
    bank_ = train;
    return Status::Ok();
  }
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override {
    std::vector<linalg::Matrix> out;
    for (int64_t i = 0; i < count; ++i) {
      out.push_back(bank_.sample(rng.UniformInt(bank_.num_samples())));
    }
    return out;
  }
  std::string name() const override { return "Bootstrap"; }

 private:
  Dataset bank_;
};

TEST(HarnessIntegrationTest, RunMethodEndToEnd) {
  // The full Figure 5 cell protocol on a tiny budget: fit, time, generate, score.
  HarnessOptions options;
  options.fit.epoch_scale = 0.05;
  options.fit.batch_size = 16;
  options.stochastic_repeats = 2;
  options.max_eval_samples = 32;
  options.embedder.epochs = 2;
  Harness harness(options);

  const Dataset all = SineDataset(60, 16, 2, 21);
  const auto [train, test] = all.Split(0.9);
  BootstrapMethod method;
  const auto run = harness.RunMethod(method, train, test);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const MethodRunResult& result = run.value();
  EXPECT_EQ(result.method, "Bootstrap");
  EXPECT_EQ(result.dataset, "sine");
  EXPECT_GE(result.fit_seconds, 0.0);
  ASSERT_EQ(result.scores.size(), 9u);
  // A bootstrap of the real data should score excellently on the deterministic
  // distribution measures (exact-sample resampling).
  for (const auto& [name, summary] : result.scores) {
    if (name == "MDD") EXPECT_LT(summary.mean, 0.05);
    if (name == "ACD") EXPECT_LT(summary.mean, 0.1);
    if (name == "SD") EXPECT_LT(summary.mean, 0.25);
  }
}

TEST(HarnessIntegrationTest, ScoresAreSeedReproducible) {
  HarnessOptions options;
  options.stochastic_repeats = 2;
  options.max_eval_samples = 24;
  options.embedder.epochs = 2;
  options.seed = 77;

  const Dataset all = SineDataset(48, 16, 2, 22);
  const auto [train, test] = all.Split(0.9);

  auto run_once = [&] {
    Harness harness(options);
    BootstrapMethod method;
    FitOptions fit;
    TSG_CHECK(method.Fit(train, fit).ok());
    Rng rng(options.seed);
    Dataset generated("g", method.Generate(24, rng));
    return harness.EvaluateGenerated(train.Head(24), test, generated, "sine")
        .value();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_DOUBLE_EQ(a[i].second.mean, b[i].second.mean) << a[i].first;
  }
}

}  // namespace
}  // namespace tsg::core

namespace tsg::core {
namespace {

/// §4.1 pipeline invariants, swept across all ten datasets.
class PipelineInvariantTest : public ::testing::TestWithParam<data::DatasetId> {};

TEST_P(PipelineInvariantTest, HoldsOnEveryDataset) {
  data::SimulatorOptions sim;
  sim.scale = 0.005;
  sim.min_windows = 64;
  const data::RawSeries raw = data::Simulate(GetParam(), sim);
  const Preprocessed pre = Preprocess(raw, PreprocessOptions());
  const data::PaperStats stats = data::GetPaperStats(GetParam());

  // Window length and width match Table 3.
  EXPECT_EQ(pre.window_length, stats.l);
  EXPECT_EQ(pre.train.num_features(), stats.n);
  // R = L - l + 1.
  const int64_t total = pre.train.num_samples() + pre.test.num_samples();
  EXPECT_EQ(total, raw.values.rows() - stats.l + 1);
  // 9:1 split (train = ceil(0.9 R)).
  EXPECT_EQ(pre.train.num_samples(),
            static_cast<int64_t>(std::ceil(0.9 * static_cast<double>(total))));
  // Normalization into [0, 1] with both extremes realized somewhere.
  double lo = 1e300, hi = -1e300;
  for (const Dataset* split : {&pre.train, &pre.test}) {
    for (double v : split->AllValues()) {
      ASSERT_GE(v, 0.0);
      ASSERT_LE(v, 1.0);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  EXPECT_NEAR(lo, 0.0, 1e-12);
  EXPECT_NEAR(hi, 1.0, 1e-12);
  // Per-feature min/max recorded for denormalization.
  EXPECT_EQ(static_cast<int64_t>(pre.feature_min.size()), stats.n);
  EXPECT_EQ(static_cast<int64_t>(pre.feature_max.size()), stats.n);
  for (int64_t j = 0; j < stats.n; ++j) {
    EXPECT_LT(pre.feature_min[static_cast<size_t>(j)],
              pre.feature_max[static_cast<size_t>(j)]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, PipelineInvariantTest,
                         ::testing::ValuesIn(data::AllDatasets()),
                         [](const ::testing::TestParamInfo<data::DatasetId>& info) {
                           return std::string(data::DatasetName(info.param));
                         });

}  // namespace
}  // namespace tsg::core
