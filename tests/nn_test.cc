#include <cmath>

#include <gtest/gtest.h>

#include "ag/ops.h"
#include "base/rng.h"
#include "gradcheck.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"

namespace tsg::nn {
namespace {

using ag::Var;
using linalg::Matrix;
using tsg::testing::ExpectGradCheck;

TEST(DenseTest, OutputShape) {
  Rng rng(1);
  Dense layer(4, 7, rng);
  const Var x = Var::Constant(Matrix(5, 4));
  const Var y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 7);
  EXPECT_EQ(layer.Parameters().size(), 2u);
  EXPECT_EQ(layer.NumParameters(), 4 * 7 + 7);
}

TEST(DenseTest, GradCheckThroughLayer) {
  Rng rng(2);
  Dense layer(3, 2, rng, Activation::kTanh);
  Matrix xm(4, 3);
  rng.FillNormal(xm.data(), xm.size());
  const Var x = Var::Constant(xm);
  const Var target = Var::Constant(Matrix::Constant(4, 2, 0.1));
  ExpectGradCheck([&] { return ag::MseLoss(layer.Forward(x), target); },
                  layer.Parameters());
}

TEST(ActivateTest, AllActivationsEvaluate) {
  const Var x = Var::Constant(Matrix({{-1.0, 0.0, 2.0}}));
  EXPECT_DOUBLE_EQ(Activate(x, Activation::kNone).value()(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(Activate(x, Activation::kRelu).value()(0, 0), 0.0);
  EXPECT_NEAR(Activate(x, Activation::kLeakyRelu).value()(0, 0), -0.2, 1e-12);
  EXPECT_NEAR(Activate(x, Activation::kSigmoid).value()(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(Activate(x, Activation::kTanh).value()(0, 2), std::tanh(2.0), 1e-12);
  EXPECT_NEAR(Activate(x, Activation::kSoftplus).value()(0, 1), std::log(2.0), 1e-12);
}

TEST(MlpTest, LearnsLinearMap) {
  Rng rng(3);
  Mlp mlp({2, 16, 1}, rng, Activation::kTanh);
  Adam opt(mlp.Parameters(), 0.02);

  Matrix x(64, 2), y(64, 1);
  for (int64_t i = 0; i < 64; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    y(i, 0) = 0.7 * x(i, 0) - 0.3 * x(i, 1);
  }
  const Var xv = Var::Constant(x), yv = Var::Constant(y);
  double final_loss = 1e9;
  for (int step = 0; step < 400; ++step) {
    opt.ZeroGrad();
    const Var loss = ag::MseLoss(mlp.Forward(xv), yv);
    ag::Backward(loss);
    opt.Step();
    final_loss = loss.value()(0, 0);
  }
  EXPECT_LT(final_loss, 1e-3);
}

TEST(MlpTest, LearnsXor) {
  Rng rng(4);
  Mlp mlp({2, 8, 1}, rng, Activation::kTanh);
  Adam opt(mlp.Parameters(), 0.05);
  const Var x = Var::Constant(Matrix({{0, 0}, {0, 1}, {1, 0}, {1, 1}}));
  const Var y = Var::Constant(Matrix({{0}, {1}, {1}, {0}}));
  for (int step = 0; step < 800; ++step) {
    opt.ZeroGrad();
    ag::Backward(ag::BceWithLogits(mlp.Forward(x), y));
    opt.Step();
  }
  const Var logits = mlp.Forward(x);
  EXPECT_LT(logits.value()(0, 0), 0.0);
  EXPECT_GT(logits.value()(1, 0), 0.0);
  EXPECT_GT(logits.value()(2, 0), 0.0);
  EXPECT_LT(logits.value()(3, 0), 0.0);
}

TEST(GruCellTest, StateShapeAndParams) {
  Rng rng(5);
  GruCell cell(3, 6, rng);
  EXPECT_EQ(cell.Parameters().size(), 10u);
  const Var x = Var::Constant(Matrix(2, 3));
  const Var h = cell.InitialState(2);
  const Var h2 = cell.Forward(x, h);
  EXPECT_EQ(h2.rows(), 2);
  EXPECT_EQ(h2.cols(), 6);
}

TEST(GruCellTest, GradCheckThroughTwoSteps) {
  Rng rng(6);
  GruCell cell(2, 3, rng);
  Matrix x1m(2, 2), x2m(2, 2);
  rng.FillNormal(x1m.data(), x1m.size());
  rng.FillNormal(x2m.data(), x2m.size());
  const Var x1 = Var::Constant(x1m), x2 = Var::Constant(x2m);
  const Var target = Var::Constant(Matrix::Constant(2, 3, 0.2));
  ExpectGradCheck(
      [&] {
        Var h = cell.InitialState(2);
        h = cell.Forward(x1, h);
        h = cell.Forward(x2, h);
        return ag::MseLoss(h, target);
      },
      cell.Parameters(), 1e-5, 1e-4);
}

TEST(LstmCellTest, GradCheckThroughTwoSteps) {
  Rng rng(7);
  LstmCell cell(2, 3, rng);
  Matrix x1m(2, 2), x2m(2, 2);
  rng.FillNormal(x1m.data(), x1m.size());
  rng.FillNormal(x2m.data(), x2m.size());
  const Var x1 = Var::Constant(x1m), x2 = Var::Constant(x2m);
  const Var target = Var::Constant(Matrix::Constant(2, 3, 0.2));
  ExpectGradCheck(
      [&] {
        LstmCell::State s = cell.InitialState(2);
        s = cell.Forward(x1, s);
        s = cell.Forward(x2, s);
        return ag::MseLoss(s.h, target);
      },
      cell.Parameters(), 1e-5, 1e-4);
}

TEST(GruStackTest, OutputsPerStepAndFinalStates) {
  Rng rng(8);
  GruStack stack(3, 5, 2, rng);
  std::vector<Var> inputs;
  for (int t = 0; t < 4; ++t) inputs.push_back(Var::Constant(Matrix(2, 3)));
  std::vector<Var> finals;
  const auto outputs = stack.Forward(inputs, &finals);
  EXPECT_EQ(outputs.size(), 4u);
  EXPECT_EQ(finals.size(), 2u);
  EXPECT_EQ(outputs[0].rows(), 2);
  EXPECT_EQ(outputs[0].cols(), 5);
}

TEST(GruStackTest, LearnsToRememberFirstInput) {
  // Task: output at final step should equal the first input value.
  Rng rng(9);
  GruStack stack(1, 8, 1, rng);
  Dense head(8, 1, rng);
  Adam opt(CollectParameters({&stack, &head}), 0.02);

  const int kSteps = 5, kBatch = 16;
  double final_loss = 1e9;
  for (int iter = 0; iter < 300; ++iter) {
    Matrix first(kBatch, 1);
    std::vector<Var> inputs;
    for (int t = 0; t < kSteps; ++t) {
      Matrix x(kBatch, 1);
      for (int b = 0; b < kBatch; ++b) {
        x(b, 0) = t == 0 ? rng.Uniform(-1, 1) : 0.0;
        if (t == 0) first(b, 0) = x(b, 0);
      }
      inputs.push_back(Var::Constant(x));
    }
    opt.ZeroGrad();
    const auto outputs = stack.Forward(inputs);
    const Var pred = head.Forward(outputs.back());
    const Var loss = ag::MseLoss(pred, Var::Constant(first));
    ag::Backward(loss);
    opt.Step();
    final_loss = loss.value()(0, 0);
  }
  EXPECT_LT(final_loss, 0.01);
}

TEST(LstmStackTest, ShapesAndFinalStates) {
  Rng rng(10);
  LstmStack stack(2, 4, 2, rng);
  std::vector<Var> inputs(3, Var::Constant(Matrix(5, 2)));
  std::vector<Var> finals;
  const auto outputs = stack.Forward(inputs, &finals);
  EXPECT_EQ(outputs.size(), 3u);
  EXPECT_EQ(finals.size(), 2u);
  EXPECT_EQ(outputs.back().cols(), 4);
}

TEST(SgdTest, SingleStepMatchesManualUpdate) {
  Var p = Var::Parameter(Matrix({{1.0}}));
  Sgd opt({p}, 0.1);
  opt.ZeroGrad();
  ag::Backward(ag::Sum(ag::Square(p)));  // grad = 2.
  opt.Step();
  EXPECT_NEAR(p.value()(0, 0), 1.0 - 0.1 * 2.0, 1e-12);
}

TEST(SgdTest, MomentumAccumulates) {
  Var p = Var::Parameter(Matrix({{0.0}}));
  Sgd opt({p}, 0.1, 0.9);
  for (int i = 0; i < 2; ++i) {
    opt.ZeroGrad();
    ag::Backward(ag::Sum(p));  // grad = 1 always.
    opt.Step();
  }
  // Step 1: v = -0.1, p = -0.1. Step 2: v = -0.09 - 0.1 = -0.19, p = -0.29.
  EXPECT_NEAR(p.value()(0, 0), -0.29, 1e-12);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Var p = Var::Parameter(Matrix({{5.0, -3.0}}));
  Adam opt({p}, 0.1);
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    ag::Backward(ag::Sum(ag::Square(p)));
    opt.Step();
  }
  EXPECT_NEAR(p.value()(0, 0), 0.0, 1e-3);
  EXPECT_NEAR(p.value()(0, 1), 0.0, 1e-3);
}

TEST(AdamTest, FirstStepIsLrSized) {
  Var p = Var::Parameter(Matrix({{1.0}}));
  Adam opt({p}, 0.01);
  opt.ZeroGrad();
  ag::Backward(ag::Sum(ag::ScalarMul(p, 3.0)));  // Any nonzero gradient.
  opt.Step();
  // Adam's bias-corrected first step is ~lr regardless of gradient magnitude.
  EXPECT_NEAR(p.value()(0, 0), 1.0 - 0.01, 1e-6);
}

TEST(OptimizerTest, ClipGradNormScalesDown) {
  Var p = Var::Parameter(Matrix({{3.0, 4.0}}));
  Sgd opt({p}, 1.0);
  opt.ZeroGrad();
  ag::Backward(ag::Sum(ag::Mul(p, Var::Constant(Matrix({{3.0, 4.0}})))));
  // grad = (3, 4), norm 5.
  const double norm = opt.ClipGradNorm(1.0);
  EXPECT_NEAR(norm, 5.0, 1e-9);
  EXPECT_NEAR(p.grad()(0, 0), 0.6, 1e-9);
  EXPECT_NEAR(p.grad()(0, 1), 0.8, 1e-9);
}

TEST(OptimizerTest, ClipGradNormLeavesSmallGradients) {
  Var p = Var::Parameter(Matrix({{0.3}}));
  Sgd opt({p}, 1.0);
  opt.ZeroGrad();
  ag::Backward(ag::Sum(p));
  const double norm = opt.ClipGradNorm(10.0);
  EXPECT_NEAR(norm, 1.0, 1e-9);
  EXPECT_NEAR(p.grad()(0, 0), 1.0, 1e-9);
}

TEST(OptimizerTest, ClipParameterValuesClamps) {
  Var p = Var::Parameter(Matrix({{-2.0, 0.01, 2.0}}));
  ClipParameterValues({p}, 0.05);
  EXPECT_NEAR(p.value()(0, 0), -0.05, 1e-12);
  EXPECT_NEAR(p.value()(0, 1), 0.01, 1e-12);
  EXPECT_NEAR(p.value()(0, 2), 0.05, 1e-12);
}

// The fused layer forwards against a reference composition of element-wise
// primitives, rebuilt here from each layer's Parameters(). Fused epilogues
// change GEMM+add association, so equality is numeric, not bitwise; each path
// on its own is deterministic across backends and thread counts.

/// act(x * wx + h * wh + b) with every primitive its own tape node.
Var ComposedGate(const Var& x, const Var& wx, const Var& h, const Var& wh,
                 const Var& b, Activation act) {
  return Activate(ag::AddRowVec(ag::MatMul(x, wx) + ag::MatMul(h, wh), b), act);
}

/// Normal draws into every parameter, so the biases (initialized to 0 or 1)
/// take part in the comparison too.
std::vector<Var> RandomizedParameters(const Module& module, Rng& rng) {
  std::vector<Var> params = module.Parameters();
  for (Var& p : params) rng.FillNormal(p.mutable_value().data(), p.value().size());
  return params;
}

void ExpectAllNear(const Matrix& a, const Matrix& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], tol) << i;
}

TEST(FusionTest, DenseForwardMatchesUnfusedComposition) {
  Rng rng(31);
  for (Activation act : {Activation::kNone, Activation::kRelu,
                         Activation::kLeakyRelu, Activation::kSigmoid,
                         Activation::kTanh, Activation::kSoftplus}) {
    SCOPED_TRACE(static_cast<int>(act));
    Dense layer(5, 7, rng, act);
    Matrix xm(4, 5);
    rng.FillNormal(xm.data(), xm.size());
    const Var x = Var::Constant(xm);
    const std::vector<Var> p = RandomizedParameters(layer, rng);  // {W, b}
    const Var composed =
        Activate(ag::AddRowVec(ag::MatMul(x, p[0]), p[1]), act);
    ExpectAllNear(layer.Forward(x).value(), composed.value(), 1e-12);
  }
}

TEST(FusionTest, GruForwardMatchesUnfusedComposition) {
  Rng rng(32);
  GruCell cell(4, 6, rng);
  Matrix xm(3, 4);
  rng.FillNormal(xm.data(), xm.size());
  const Var x = Var::Constant(xm);
  // {wxr, whr, br, wxz, whz, bz, wxn, whn, bxn, bhn}
  const std::vector<Var> p = RandomizedParameters(cell, rng);
  Var fused = cell.InitialState(3);
  Var composed = cell.InitialState(3);
  for (int step = 0; step < 2; ++step) {
    fused = cell.Forward(x, fused);
    const Var h = composed;
    const Var r = ComposedGate(x, p[0], h, p[1], p[2], Activation::kSigmoid);
    const Var z = ComposedGate(x, p[3], h, p[4], p[5], Activation::kSigmoid);
    const Var n = ag::Tanh(ag::AddRowVec(ag::MatMul(x, p[6]), p[8]) +
                           ag::Mul(r, ag::AddRowVec(ag::MatMul(h, p[7]), p[9])));
    composed = ag::Mul(ag::ScalarAdd(ag::Neg(z), 1.0), n) + ag::Mul(z, h);
  }
  ExpectAllNear(fused.value(), composed.value(), 1e-12);
}

TEST(FusionTest, LstmForwardMatchesUnfusedComposition) {
  Rng rng(33);
  LstmCell cell(4, 5, rng);
  Matrix xm(3, 4);
  rng.FillNormal(xm.data(), xm.size());
  const Var x = Var::Constant(xm);
  // {wxi, whi, bi, wxf, whf, bf, wxg, whg, bg, wxo, who, bo}
  const std::vector<Var> p = RandomizedParameters(cell, rng);
  LstmCell::State fused = cell.InitialState(3);
  LstmCell::State composed = cell.InitialState(3);
  for (int step = 0; step < 2; ++step) {
    fused = cell.Forward(x, fused);
    const Var h = composed.h;
    const Var i = ComposedGate(x, p[0], h, p[1], p[2], Activation::kSigmoid);
    const Var f = ComposedGate(x, p[3], h, p[4], p[5], Activation::kSigmoid);
    const Var g = ComposedGate(x, p[6], h, p[7], p[8], Activation::kTanh);
    const Var o = ComposedGate(x, p[9], h, p[10], p[11], Activation::kSigmoid);
    composed.c = ag::Mul(f, composed.c) + ag::Mul(i, g);
    composed.h = ag::Mul(o, ag::Tanh(composed.c));
  }
  ExpectAllNear(fused.h.value(), composed.h.value(), 1e-12);
  ExpectAllNear(fused.c.value(), composed.c.value(), 1e-12);
}

TEST(ModuleTest, CollectParametersGathersAll) {
  Rng rng(11);
  Dense d1(2, 3, rng), d2(3, 1, rng);
  const auto params = CollectParameters({&d1, &d2});
  EXPECT_EQ(params.size(), 4u);
}

TEST(ModuleTest, GlorotInitWithinLimit) {
  Rng rng(12);
  const Var w = GlorotParameter(10, 10, rng);
  const double limit = std::sqrt(6.0 / 20.0);
  for (int64_t i = 0; i < w.value().size(); ++i) {
    EXPECT_LE(std::fabs(w.value()[i]), limit);
  }
}

}  // namespace
}  // namespace tsg::nn

namespace tsg::nn {
namespace {

TEST(PositionalEncodingTest, ShapeAndRange) {
  const linalg::Matrix pos = SinusoidalPositions(24, 16);
  EXPECT_EQ(pos.rows(), 24);
  EXPECT_EQ(pos.cols(), 16);
  for (int64_t i = 0; i < pos.size(); ++i) {
    EXPECT_GE(pos[i], -1.0);
    EXPECT_LE(pos[i], 1.0);
  }
}

TEST(PositionalEncodingTest, FirstRowIsSinCosOfZero) {
  const linalg::Matrix pos = SinusoidalPositions(4, 6);
  for (int64_t k = 0; k < 6; ++k) {
    EXPECT_DOUBLE_EQ(pos(0, k), k % 2 == 0 ? 0.0 : 1.0);
  }
}

TEST(PositionalEncodingTest, RowsAreDistinct) {
  const linalg::Matrix pos = SinusoidalPositions(32, 8);
  for (int64_t a = 0; a < 32; ++a) {
    for (int64_t b = a + 1; b < 32; ++b) {
      double dist = 0.0;
      for (int64_t k = 0; k < 8; ++k) {
        dist += (pos(a, k) - pos(b, k)) * (pos(a, k) - pos(b, k));
      }
      EXPECT_GT(dist, 1e-6) << "rows " << a << " and " << b;
    }
  }
}

}  // namespace
}  // namespace tsg::nn
