#include <cmath>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "embed/embedder.h"
#include "embed/tsne.h"

namespace tsg::embed {
namespace {

std::vector<Matrix> MakeSequences(int64_t count, int64_t l, int64_t n, double offset,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> out;
  for (int64_t i = 0; i < count; ++i) {
    Matrix s(l, n);
    const double phase = rng.Uniform(0, 6.28);
    for (int64_t t = 0; t < l; ++t) {
      for (int64_t j = 0; j < n; ++j) {
        s(t, j) = offset + 0.3 * std::sin(0.4 * t + phase + j);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(EmbedderTest, EmbeddingShape) {
  SequenceEmbedder::Options options;
  options.epochs = 2;
  SequenceEmbedder embedder(3, options, 1);
  const auto data = MakeSequences(20, 12, 3, 0.5, 2);
  ASSERT_TRUE(embedder.Fit(data).ok());
  const Matrix emb = embedder.Embed(data);
  EXPECT_EQ(emb.rows(), 20);
  EXPECT_EQ(emb.cols(), options.embed_dim);
}

TEST(EmbedderTest, TrainingReducesLoss) {
  const auto data = MakeSequences(48, 12, 2, 0.5, 3);
  SequenceEmbedder::Options quick;
  quick.epochs = 1;
  SequenceEmbedder fast(2, quick, 7);
  const double loss_short = fast.Fit(data).value();

  SequenceEmbedder::Options longer = quick;
  longer.epochs = 20;
  SequenceEmbedder slow(2, longer, 7);
  const double loss_long = slow.Fit(data).value();
  EXPECT_LT(loss_long, loss_short);
}

TEST(EmbedderTest, SeparatesDistinctPopulations) {
  // Two populations with different offsets should embed far apart relative to
  // within-population spread.
  const auto pop_a = MakeSequences(24, 12, 2, 0.2, 4);
  const auto pop_b = MakeSequences(24, 12, 2, 0.8, 5);
  std::vector<Matrix> all = pop_a;
  all.insert(all.end(), pop_b.begin(), pop_b.end());

  SequenceEmbedder::Options options;
  options.epochs = 15;
  SequenceEmbedder embedder(2, options, 6);
  ASSERT_TRUE(embedder.Fit(all).ok());
  const Matrix ea = embedder.Embed(pop_a);
  const Matrix eb = embedder.Embed(pop_b);
  const Matrix mean_a = linalg::ColMean(ea);
  const Matrix mean_b = linalg::ColMean(eb);
  double between = 0.0;
  for (int64_t j = 0; j < mean_a.cols(); ++j) {
    between += (mean_a(0, j) - mean_b(0, j)) * (mean_a(0, j) - mean_b(0, j));
  }
  EXPECT_GT(std::sqrt(between), 0.1);
}

TEST(EmbedderTest, DeterministicForSameSeed) {
  const auto data = MakeSequences(16, 10, 2, 0.5, 8);
  SequenceEmbedder::Options options;
  options.epochs = 3;
  SequenceEmbedder a(2, options, 42), b(2, options, 42);
  ASSERT_TRUE(a.Fit(data).ok());
  ASSERT_TRUE(b.Fit(data).ok());
  EXPECT_TRUE(linalg::AllClose(a.Embed(data), b.Embed(data), 1e-12));
}

TEST(EmbedderTest, RejectsEmptyAndMixedShapes) {
  SequenceEmbedder::Options options;
  options.epochs = 1;
  SequenceEmbedder embedder(2, options, 1);
  EXPECT_EQ(embedder.Fit({}).status().code(), StatusCode::kInvalidArgument);
  for (const Matrix& odd : {Matrix(9, 2), Matrix(11, 2), Matrix(10, 3)}) {
    std::vector<Matrix> data = MakeSequences(4, 10, 2, 0.5, 9);
    data.push_back(odd);
    const StatusOr<double> loss = embedder.Fit(data);
    ASSERT_FALSE(loss.ok()) << odd.rows() << "x" << odd.cols();
    EXPECT_EQ(loss.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loss.status().message().find("sample 4"), std::string::npos)
        << loss.status().ToString();
  }
}

TEST(EmbedderTest, DivergedFitIsANumericalError) {
  SequenceEmbedder::Options options;
  options.epochs = 2;
  options.learning_rate = 1e308;
  SequenceEmbedder embedder(2, options, 3);
  const StatusOr<double> loss = embedder.Fit(MakeSequences(16, 10, 2, 0.5, 4));
  ASSERT_FALSE(loss.ok()) << loss.value();
  EXPECT_EQ(loss.status().code(), StatusCode::kNumericalError);
  EXPECT_NE(loss.status().message().find("C-FID: non-finite"), std::string::npos)
      << loss.status().ToString();
  EXPECT_NE(loss.status().message().find("in embedder at epoch"), std::string::npos)
      << loss.status().ToString();
}

TEST(TsneTest, OutputShapeAndFiniteness) {
  Rng rng(1);
  Matrix data(40, 10);
  rng.FillNormal(data.data(), data.size());
  TsneOptions options;
  options.iterations = 60;
  const Matrix y = Tsne(data, options);
  EXPECT_EQ(y.rows(), 40);
  EXPECT_EQ(y.cols(), 2);
  for (int64_t i = 0; i < y.size(); ++i) EXPECT_TRUE(std::isfinite(y[i]));
}

TEST(TsneTest, SeparatesWellSeparatedClusters) {
  Rng rng(2);
  const int64_t per = 30;
  Matrix data(2 * per, 5);
  for (int64_t i = 0; i < per; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      data(i, j) = rng.Normal() * 0.1;
      data(per + i, j) = 8.0 + rng.Normal() * 0.1;
    }
  }
  TsneOptions options;
  options.iterations = 250;
  options.perplexity = 10;
  const Matrix y = Tsne(data, options);
  std::vector<int> labels(2 * per, 0);
  for (int64_t i = per; i < 2 * per; ++i) labels[static_cast<size_t>(i)] = 1;
  // Almost every nearest neighbour should share the label -> overlap near 0.
  EXPECT_LT(NeighborhoodOverlap(y, labels, 5), 0.1);
}

TEST(TsneTest, MixedCloudsOverlapNearHalf) {
  Rng rng(3);
  Matrix data(60, 4);
  rng.FillNormal(data.data(), data.size());
  TsneOptions options;
  options.iterations = 150;
  const Matrix y = Tsne(data, options);
  std::vector<int> labels(60);
  for (int64_t i = 0; i < 60; ++i) labels[static_cast<size_t>(i)] = i % 2;
  const double overlap = NeighborhoodOverlap(y, labels, 8);
  EXPECT_GT(overlap, 0.3);
  EXPECT_LT(overlap, 0.7);
}

TEST(TsneTest, DeterministicForSeed) {
  Rng rng(4);
  Matrix data(20, 6);
  rng.FillNormal(data.data(), data.size());
  TsneOptions options;
  options.iterations = 40;
  EXPECT_TRUE(linalg::AllClose(Tsne(data, options), Tsne(data, options), 1e-12));
}

TEST(NeighborhoodOverlapTest, PerfectSeparationIsZero) {
  Matrix points(8, 2);
  std::vector<int> labels(8);
  for (int64_t i = 0; i < 8; ++i) {
    const bool second = i >= 4;
    points(i, 0) = second ? 100.0 + i : static_cast<double>(i);
    points(i, 1) = 0.0;
    labels[static_cast<size_t>(i)] = second ? 1 : 0;
  }
  EXPECT_DOUBLE_EQ(NeighborhoodOverlap(points, labels, 3), 0.0);
}

}  // namespace
}  // namespace tsg::embed
