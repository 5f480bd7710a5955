#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "signal/acf.h"
#include "signal/fft.h"
#include "signal/stft.h"

namespace tsg::signal {
namespace {

constexpr double kPi = std::numbers::pi;

std::vector<double> RandomSignal(int64_t n, Rng& rng) {
  std::vector<double> x(static_cast<size_t>(n));
  for (auto& v : x) v = rng.Normal();
  return x;
}

class FftRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(FftRoundTripTest, ForwardInverseIsIdentity) {
  const int n = GetParam();
  Rng rng(n);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.Normal(), rng.Normal());
  const std::vector<Complex> orig = x;
  Fft(x, /*inverse=*/false);
  Fft(x, /*inverse=*/true);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), orig[i].real(), 1e-9);
    EXPECT_NEAR(x[i].imag(), orig[i].imag(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftRoundTripTest,
                         ::testing::Values(1, 2, 4, 8, 64, 128, 3, 5, 7, 12, 24, 125,
                                           168, 192, 97));

TEST(FftTest, MatchesNaiveDftOnArbitraryLength) {
  const int n = 13;
  Rng rng(1);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.Normal(), rng.Normal());

  // Naive O(n^2) DFT reference.
  std::vector<Complex> expected(n);
  for (int k = 0; k < n; ++k) {
    Complex s(0, 0);
    for (int t = 0; t < n; ++t) {
      const double angle = -2.0 * kPi * k * t / n;
      s += x[t] * Complex(std::cos(angle), std::sin(angle));
    }
    expected[k] = s;
  }
  Fft(x, /*inverse=*/false);
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), expected[k].real(), 1e-8);
    EXPECT_NEAR(x[k].imag(), expected[k].imag(), 1e-8);
  }
}

TEST(FftTest, PureToneHasSingleBin) {
  const int n = 64;
  std::vector<Complex> x(n);
  for (int t = 0; t < n; ++t) {
    const double angle = 2.0 * kPi * 5.0 * t / n;
    x[t] = Complex(std::cos(angle), std::sin(angle));
  }
  Fft(x, /*inverse=*/false);
  for (int k = 0; k < n; ++k) {
    if (k == 5) {
      EXPECT_NEAR(std::abs(x[k]), n, 1e-8);
    } else {
      EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-8);
    }
  }
}

TEST(RealDftTest, RoundTrip) {
  for (int n : {8, 24, 125, 128}) {
    Rng rng(n);
    const std::vector<double> x = RandomSignal(n, rng);
    const auto spec = RealDft(x);
    EXPECT_EQ(static_cast<int>(spec.size()), n / 2 + 1);
    const auto back = InverseRealDft(spec, n);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-9);
  }
}

class PackedDftTest : public ::testing::TestWithParam<int> {};

TEST_P(PackedDftTest, RoundTripAndOrthonormality) {
  const int n = GetParam();
  Rng rng(n + 100);
  const std::vector<double> x = RandomSignal(n, rng);
  const auto packed = RealDftPacked(x);
  ASSERT_EQ(static_cast<int>(packed.size()), n);

  // Orthonormal: Parseval holds exactly (energy preserved).
  double ex = 0.0, ep = 0.0;
  for (double v : x) ex += v * v;
  for (double v : packed) ep += v * v;
  EXPECT_NEAR(ex, ep, 1e-8 * std::max(1.0, ex));

  const auto back = InverseRealDftPacked(packed);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Lengths, PackedDftTest,
                         ::testing::Values(2, 3, 8, 14, 24, 125, 128, 168, 192));

TEST(StftTest, RoundTripReconstruction) {
  for (int n : {64, 125, 192}) {
    Rng rng(n);
    const std::vector<double> x = RandomSignal(n, rng);
    const Stft stft = ComputeStft(x, /*n_fft=*/8, /*hop=*/4);
    const auto back = InverseStft(stft);
    ASSERT_EQ(back.size(), x.size());
    for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-8);
  }
}

TEST(StftTest, FrameAndBinCounts) {
  const std::vector<double> x(100, 1.0);
  const Stft stft = ComputeStft(x, 8, 4);
  EXPECT_EQ(stft.num_bins(), 5);
  EXPECT_GT(stft.num_frames(), 100 / 4 - 2);
}

TEST(StftTest, LowBandOfSmoothSignalKeepsMostEnergy) {
  // A slow sinusoid should live almost entirely in the low bins.
  std::vector<double> x(128);
  for (int t = 0; t < 128; ++t) x[t] = std::sin(2.0 * kPi * t / 64.0);
  Stft low_band = ComputeStft(x, 8, 4);
  for (auto& frame : low_band.coeffs) {
    for (size_t k = 2; k < frame.size(); ++k) frame[k] = Complex(0, 0);
  }
  const auto low = InverseStft(low_band);
  double err = 0.0, energy = 0.0;
  for (int t = 0; t < 128; ++t) {
    err += (low[t] - x[t]) * (low[t] - x[t]);
    energy += x[t] * x[t];
  }
  EXPECT_LT(err / energy, 0.05);
}

TEST(AcfTest, LagZeroIsOne) {
  Rng rng(5);
  const auto acf = Autocorrelation(RandomSignal(256, rng), 10);
  EXPECT_NEAR(acf[0], 1.0, 1e-12);
}

TEST(AcfTest, PeriodicSignalPeaksAtPeriod) {
  std::vector<double> x(400);
  for (int t = 0; t < 400; ++t) x[t] = std::sin(2.0 * kPi * t / 20.0);
  const auto acf = Autocorrelation(x, 50);
  EXPECT_GT(acf[20], 0.9);
  EXPECT_LT(acf[10], 0.0);  // Anti-phase at half period.
}

TEST(AcfTest, WhiteNoiseDecorrelates) {
  Rng rng(6);
  const auto acf = Autocorrelation(RandomSignal(5000, rng), 5);
  for (int k = 1; k <= 5; ++k) EXPECT_LT(std::fabs(acf[k]), 0.05);
}

TEST(AcfTest, ConstantSeriesIsSafe) {
  const std::vector<double> x(100, 3.0);
  const auto acf = Autocorrelation(x, 5);
  EXPECT_NEAR(acf[0], 1.0, 1e-12);
  for (int k = 1; k <= 5; ++k) EXPECT_NEAR(acf[k], 0.0, 1e-12);
}

TEST(WindowLengthTest, FindsPeriodOfSine) {
  std::vector<double> x(600);
  for (int t = 0; t < 600; ++t) x[t] = std::sin(2.0 * kPi * t / 24.0);
  const int64_t l = SuggestWindowLength(x, 4, 64);
  EXPECT_NEAR(static_cast<double>(l), 24.0, 1.0);
}

TEST(WindowLengthTest, FallsBackOnNoise) {
  Rng rng(7);
  const auto x = RandomSignal(500, rng);
  const int64_t l = SuggestWindowLength(x, 16, 48);
  EXPECT_GE(l, 16);
  EXPECT_LE(l, 48);
}

}  // namespace
}  // namespace tsg::signal

namespace tsg::signal {
namespace {

TEST(PackedDftTest, LengthOneIsIdentity) {
  const std::vector<double> x = {3.5};
  const auto packed = RealDftPacked(x);
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_NEAR(packed[0], 3.5, 1e-12);
  EXPECT_NEAR(InverseRealDftPacked(packed)[0], 3.5, 1e-12);
}

TEST(FftTest, EmptyIsNoop) {
  std::vector<Complex> x;
  Fft(x, false);
  EXPECT_TRUE(x.empty());
}

TEST(StftTest, RejectsBadParametersViaDeath) {
  const std::vector<double> x(32, 0.0);
  EXPECT_DEATH(ComputeStft(x, 1, 1), "TSG_CHECK");
  EXPECT_DEATH(ComputeStft(x, 8, 0), "TSG_CHECK");
  EXPECT_DEATH(ComputeStft(x, 8, 16), "TSG_CHECK");
}

}  // namespace
}  // namespace tsg::signal
