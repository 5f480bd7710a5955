// Generation-quality tests: after a moderate training budget each method's output
// must be measurably closer to the data distribution than a uniform-noise baseline.
// These catch silent training regressions (a method that compiles and emits
// in-range values but learned nothing).

#include <cmath>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/measures.h"
#include "data/simulators.h"
#include "methods/factory.h"
#include "stats/histogram.h"

namespace tsg::methods {
namespace {

using core::Dataset;

Dataset TrainingData() {
  // Slow sines only (eta in the identifiable band): learnable structure.
  Rng rng(31);
  std::vector<linalg::Matrix> samples;
  for (int i = 0; i < 96; ++i) {
    linalg::Matrix s(16, 3);
    for (int64_t j = 0; j < 3; ++j) {
      const double eta = rng.Uniform(0.05, 0.15);
      const double theta = rng.Uniform(-3.14, 3.14);
      for (int64_t t = 0; t < 16; ++t) {
        s(t, j) = 0.5 * (std::sin(6.28318 * eta * (t + 1) + theta) + 1.0);
      }
    }
    samples.push_back(std::move(s));
  }
  return Dataset("slow-sine", std::move(samples));
}

Dataset UniformNoise(int64_t count, int64_t l, int64_t n) {
  Rng rng(77);
  std::vector<linalg::Matrix> samples;
  for (int64_t i = 0; i < count; ++i) {
    linalg::Matrix s(l, n);
    for (int64_t k = 0; k < s.size(); ++k) s[k] = rng.Uniform();
    samples.push_back(std::move(s));
  }
  return Dataset("noise", std::move(samples));
}

/// Mode-collapse stand-in: every window is the constant 0.9.
Dataset ConstantOutput(int64_t count, int64_t l, int64_t n) {
  std::vector<linalg::Matrix> samples(static_cast<size_t>(count),
                                      linalg::Matrix::Constant(l, n, 0.9));
  return Dataset("constant", std::move(samples));
}

/// GT-GAN's ODE generator converges slower than the others (3rd tier in the
/// paper); it gets a proportionally larger test budget, like the paper's fixed
/// per-method hyper-parameters give it longer wall-clock.
double BudgetFor(const std::string& method) {
  return method == "GT-GAN" ? 2.0 : 0.4;
}

double Acd(const Dataset& real, const Dataset& generated) {
  core::MeasureContext ctx;
  ctx.real = &real;
  ctx.generated = &generated;
  return core::AutocorrelationDifference().Evaluate(ctx).value();
}

class QualityTest : public ::testing::TestWithParam<std::string> {};

/// Global value-distribution gap: histogram distance between all real values and
/// all values of `generated`, with edges frozen on the real sample.
double GlobalMarginalGap(const Dataset& real, const Dataset& generated) {
  const auto real_values = real.AllValues();
  stats::Histogram real_hist = stats::Histogram::FitRange(real_values, 20);
  stats::Histogram gen_hist = real_hist;
  real_hist.AddAll(real_values);
  gen_hist.AddAll(generated.AllValues());
  return real_hist.MeanAbsDiff(gen_hist);
}

TEST_P(QualityTest, BeatsConstantOutputOnGlobalMarginal) {
  // A collapsed generator emitting one constant window has a catastrophic global
  // value distribution; any method that learned *anything* beats it by a wide
  // margin. (Per-cell MDD at this sample size sits too close to its noise floor to
  // separate budgets; the global marginal is the stable signal.)
  const Dataset train = TrainingData();
  auto method = CreateMethod(GetParam());
  ASSERT_TRUE(method.ok());
  core::FitOptions fit;
  fit.epoch_scale = BudgetFor(GetParam());
  fit.batch_size = 24;
  ASSERT_TRUE(method.value()->Fit(train, fit).ok());
  Rng rng(5);
  const Dataset generated(GetParam(), method.value()->Generate(64, rng));
  const Dataset collapsed =
      ConstantOutput(64, train.seq_len(), train.num_features());
  // Strictly better than the collapsed generator. (No slack factor: the real
  // marginal here is arcsine-shaped and mass-at-the-edges, which low-budget GANs
  // match only loosely — the regression signal is the strict ordering, while the
  // ACD test below provides the quantitative bar.)
  EXPECT_LT(GlobalMarginalGap(train, generated),
            GlobalMarginalGap(train, collapsed))
      << GetParam() << " is no better than a mode-collapsed generator";
}

TEST_P(QualityTest, BeatsUniformNoiseOnAutocorrelation) {
  const Dataset train = TrainingData();
  auto method = CreateMethod(GetParam());
  ASSERT_TRUE(method.ok());
  core::FitOptions fit;
  fit.epoch_scale = BudgetFor(GetParam());
  fit.batch_size = 24;
  ASSERT_TRUE(method.value()->Fit(train, fit).ok());
  Rng rng(6);
  const Dataset generated(GetParam(), method.value()->Generate(64, rng));
  const Dataset noise = UniformNoise(64, train.seq_len(), train.num_features());
  EXPECT_LT(Acd(train, generated), Acd(train, noise))
      << GetParam() << " does not beat uniform noise on ACD";
}

// All ten methods must clear the noise bar — this is the weakest meaningful
// quality guarantee and even the paper's lowest-tier methods satisfy it.
INSTANTIATE_TEST_SUITE_P(AllMethods, QualityTest,
                         ::testing::ValuesIn(AllMethodNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SpecialtyTest, FourierFlowCapturesAutocorrelationWell) {
  // The paper singles out Fourier Flow as the ACD leader; verify its ACD lands in
  // a strong band on strongly periodic data.
  const Dataset train = TrainingData();
  auto method = CreateMethod("FourierFlow");
  core::FitOptions fit;
  fit.epoch_scale = 0.6;
  ASSERT_TRUE(method.value()->Fit(train, fit).ok());
  Rng rng(7);
  const Dataset generated("ff", method.value()->Generate(64, rng));
  EXPECT_LT(Acd(train, generated), 0.25);
}

TEST(SpecialtyTest, VaeFamilyTracksValuesClosely) {
  // VAE-family methods lead the distance measures in the paper. With index pairing
  // the achievable floor for an unconditional generator is the data's *intrinsic*
  // pair distance (two independent real windows differ substantially), so the bar
  // is: below uniform noise, and within 15% of the intrinsic floor.
  const Dataset train = TrainingData();
  const Dataset noise = UniformNoise(64, train.seq_len(), train.num_features());
  core::EuclideanDistanceMeasure ed;
  core::MeasureContext noise_ctx;
  noise_ctx.real = &train;
  noise_ctx.generated = &noise;
  const double noise_ed = ed.Evaluate(noise_ctx).value();

  // Intrinsic floor: real data paired against an independent reshuffle of itself.
  Rng shuffle_rng(99);
  const Dataset reshuffled = train.Shuffled(shuffle_rng).Head(64);
  core::MeasureContext floor_ctx;
  floor_ctx.real = &train;
  floor_ctx.generated = &reshuffled;
  const double floor_ed = ed.Evaluate(floor_ctx).value();

  for (const char* name : {"TimeVAE", "LS4"}) {
    auto method = CreateMethod(name);
    core::FitOptions fit;
    fit.epoch_scale = 0.4;
    ASSERT_TRUE(method.value()->Fit(train, fit).ok());
    Rng rng(8);
    const Dataset generated(name, method.value()->Generate(64, rng));
    core::MeasureContext ctx;
    ctx.real = &train;
    ctx.generated = &generated;
    const double gen_ed = ed.Evaluate(ctx).value();
    EXPECT_LT(gen_ed, noise_ed) << name;
    EXPECT_LT(gen_ed, 1.15 * floor_ed) << name;
  }
}

}  // namespace
}  // namespace tsg::methods
