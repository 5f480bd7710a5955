#include <cmath>
#include <functional>
#include <memory>
#include <ostream>
#include <utility>

#include <gtest/gtest.h>

#include "ag/ops.h"
#include "ag/tape.h"
#include "ag/variable.h"
#include "base/rng.h"
#include "gradcheck.h"

namespace tsg::ag {
namespace {

using linalg::Matrix;
using tsg::testing::ExpectGradCheck;

Var RandomParam(int64_t rows, int64_t cols, Rng& rng, double scale = 1.0) {
  Matrix m(rows, cols);
  rng.FillNormal(m.data(), m.size());
  m *= scale;
  return Var::Parameter(std::move(m));
}

TEST(VariableTest, ConstantsDoNotRequireGrad) {
  const Var c = Var::Constant(Matrix(2, 2));
  EXPECT_FALSE(c.requires_grad());
  const Var p = Var::Parameter(Matrix(2, 2));
  EXPECT_TRUE(p.requires_grad());
}

TEST(VariableTest, OpInheritsRequiresGrad) {
  const Var c1 = Var::Constant(Matrix(2, 2));
  const Var c2 = Var::Constant(Matrix(2, 2));
  EXPECT_FALSE(Add(c1, c2).requires_grad());
  const Var p = Var::Parameter(Matrix(2, 2));
  EXPECT_TRUE(Add(c1, p).requires_grad());
}

TEST(BackwardTest, SimpleChainRule) {
  // loss = mean((2x)^2), d/dx = 8x / n.
  Var x = Var::Parameter(Matrix({{1.0, -2.0}}));
  x.ZeroGrad();
  const Var loss = Mean(Square(ScalarMul(x, 2.0)));
  Backward(loss);
  EXPECT_NEAR(x.grad()(0, 0), 8.0 * 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(x.grad()(0, 1), 8.0 * -2.0 / 2.0, 1e-12);
}

TEST(BackwardTest, GradientsAccumulateAcrossBackwardCalls) {
  Var x = Var::Parameter(Matrix({{3.0}}));
  x.ZeroGrad();
  Backward(Sum(x));
  Backward(Sum(x));
  EXPECT_NEAR(x.grad()(0, 0), 2.0, 1e-12);
  x.ZeroGrad();
  EXPECT_NEAR(x.grad()(0, 0), 0.0, 1e-12);
}

TEST(BackwardTest, SharedSubexpressionCountedTwice) {
  // loss = sum(x + x); dx = 2.
  Var x = Var::Parameter(Matrix({{1.0}}));
  x.ZeroGrad();
  Backward(Sum(Add(x, x)));
  EXPECT_NEAR(x.grad()(0, 0), 2.0, 1e-12);
}

TEST(BackwardTest, DetachStopsGradient) {
  Var x = Var::Parameter(Matrix({{2.0}}));
  x.ZeroGrad();
  const Var y = Detach(Square(x));
  EXPECT_FALSE(y.requires_grad());
  Backward(Sum(Mul(y, x)));  // d/dx (4 * x) = 4 only through the live branch.
  EXPECT_NEAR(x.grad()(0, 0), 4.0, 1e-12);
}

TEST(BackwardDeathTest, RequiresScalarRoot) {
  Var x = Var::Parameter(Matrix(2, 2));
  EXPECT_DEATH(Backward(x), "scalar");
}

// ---- Parameterized gradient checks over every differentiable op. ----

struct OpCase {
  const char* name;
  // Builds a scalar loss from two parameter matrices (some ops ignore the second).
  std::function<Var(const Var&, const Var&)> build;
  // Some ops need positive inputs (Sqrt).
  bool positive_inputs = false;
};

// Without this gtest prints an OpCase as its raw bytes, which include the
// address of `name`; the listed (and CTest) test names would then change with
// every process under address-space randomization.
void PrintTo(const OpCase& op, std::ostream* os) { *os << op.name; }

class OpGradTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradTest, MatchesNumericalGradient) {
  const OpCase& op = GetParam();
  Rng rng(42);
  Var a = RandomParam(3, 4, rng, 0.8);
  Var b = RandomParam(3, 4, rng, 0.8);
  if (op.positive_inputs) {
    for (int64_t i = 0; i < a.value().size(); ++i) {
      a.mutable_value()[i] = std::fabs(a.value()[i]) + 0.5;
      b.mutable_value()[i] = std::fabs(b.value()[i]) + 0.5;
    }
  }
  ExpectGradCheck([&] { return op.build(a, b); }, {a, b}, 1e-5, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradTest,
    ::testing::Values(
        OpCase{"Add", [](const Var& a, const Var& b) { return Sum(Add(a, b)); }},
        OpCase{"Sub", [](const Var& a, const Var& b) { return Sum(Sub(a, b)); }},
        OpCase{"Mul", [](const Var& a, const Var& b) { return Sum(Mul(a, b)); }},
        OpCase{"Neg", [](const Var& a, const Var&) { return Sum(Neg(a)); }},
        OpCase{"ScalarMul",
               [](const Var& a, const Var&) { return Sum(ScalarMul(a, -1.7)); }},
        OpCase{"ScalarAdd",
               [](const Var& a, const Var&) { return Sum(ScalarAdd(a, 2.5)); }},
        OpCase{"Sigmoid", [](const Var& a, const Var&) { return Sum(Sigmoid(a)); }},
        OpCase{"Tanh", [](const Var& a, const Var&) { return Sum(Tanh(a)); }},
        OpCase{"Exp", [](const Var& a, const Var&) { return Sum(Exp(a)); }},
        OpCase{"Softplus", [](const Var& a, const Var&) { return Sum(Softplus(a)); }},
        OpCase{"Square", [](const Var& a, const Var&) { return Sum(Square(a)); }},
        OpCase{"Sqrt", [](const Var& a, const Var&) { return Sum(Sqrt(a)); },
               /*positive_inputs=*/true},
        OpCase{"Mean", [](const Var& a, const Var&) { return Mean(a); }},
        OpCase{"SumOfColSum",
               [](const Var& a, const Var&) { return Sum(Square(ColSum(a))); }},
        OpCase{"ColMean",
               [](const Var& a, const Var&) { return Sum(Square(ColMeanVar(a))); }},
        OpCase{"Transpose",
               [](const Var& a, const Var&) { return Sum(Square(Transpose(a))); }},
        OpCase{"ConcatCols",
               [](const Var& a, const Var& b) {
                 return Sum(Square(ConcatCols(a, b)));
               }},
        OpCase{"ConcatRows",
               [](const Var& a, const Var& b) {
                 return Sum(Square(ConcatRows(a, b)));
               }},
        OpCase{"SliceCols",
               [](const Var& a, const Var&) {
                 return Sum(Square(SliceCols(a, 1, 2)));
               }},
        OpCase{"MseLoss",
               [](const Var& a, const Var& b) { return MseLoss(a, b); }},
        OpCase{"MatMulPath",
               [](const Var& a, const Var& b) {
                 return Sum(Square(MatMul(a, Transpose(b))));
               }}),
    [](const ::testing::TestParamInfo<OpCase>& info) { return info.param.name; });

TEST(OpGradManualTest, ReluGradient) {
  // ReLU is non-differentiable at 0; check at points away from the kink.
  Var a = Var::Parameter(Matrix({{1.5, -2.0, 0.7, -0.3}}));
  ExpectGradCheck([&] { return Sum(Square(Relu(a))); }, {a});
}

TEST(OpGradManualTest, LeakyReluGradient) {
  Var a = Var::Parameter(Matrix({{1.5, -2.0, 0.7, -0.3}}));
  ExpectGradCheck([&] { return Sum(Square(LeakyRelu(a, 0.1))); }, {a});
}

TEST(OpGradManualTest, AbsGradient) {
  Var a = Var::Parameter(Matrix({{1.5, -2.0, 0.7, -0.3}}));
  ExpectGradCheck([&] { return Sum(Square(Abs(a))); }, {a});
}

TEST(OpGradManualTest, BroadcastRowOps) {
  Rng rng(7);
  Var a = RandomParam(4, 3, rng);
  Var b = RandomParam(1, 3, rng);
  ExpectGradCheck([&] { return Sum(Square(AddRowVec(a, b))); }, {a, b});
  ExpectGradCheck([&] { return Sum(Square(MulRowVec(a, b))); }, {a, b});
}

TEST(OpGradManualTest, BceWithLogitsGradient) {
  Rng rng(8);
  Var logits = RandomParam(3, 3, rng, 1.5);
  Matrix targets(3, 3);
  for (int64_t i = 0; i < targets.size(); ++i) targets[i] = rng.Uniform() < 0.5 ? 0 : 1;
  const Var t = Var::Constant(targets);
  ExpectGradCheck([&] { return BceWithLogits(logits, t); }, {logits});
}

TEST(OpGradManualTest, MatMulBothSides) {
  Rng rng(9);
  Var a = RandomParam(3, 4, rng);
  Var b = RandomParam(4, 2, rng);
  ExpectGradCheck([&] { return Sum(Square(MatMul(a, b))); }, {a, b});
}

TEST(OpGradManualTest, DeepComposition) {
  // A small MLP-like composition exercising many ops together.
  Rng rng(10);
  Var w1 = RandomParam(3, 5, rng, 0.5);
  Var b1 = RandomParam(1, 5, rng, 0.1);
  Var w2 = RandomParam(5, 1, rng, 0.5);
  const Var x = Var::Constant([&] {
    Matrix m(4, 3);
    Rng data_rng(11);
    data_rng.FillNormal(m.data(), m.size());
    return m;
  }());
  const Var target = Var::Constant(Matrix::Constant(4, 1, 0.3));
  ExpectGradCheck(
      [&] {
        const Var h = Tanh(AddRowVec(MatMul(x, w1), b1));
        return MseLoss(Sigmoid(MatMul(h, w2)), target);
      },
      {w1, b1, w2});
}

TEST(OpValueTest, RandnShapeAndMoments) {
  Rng rng(15);
  const Var z = Randn(200, 50, rng, 2.0);
  EXPECT_FALSE(z.requires_grad());
  EXPECT_NEAR(z.value().Mean(), 0.0, 0.05);
  double var = 0.0;
  for (int64_t i = 0; i < z.value().size(); ++i) var += z.value()[i] * z.value()[i];
  var /= static_cast<double>(z.value().size());
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(OpValueTest, OperatorSugarMatchesFunctions) {
  const Var a = Var::Constant(Matrix({{1, 2}}));
  const Var b = Var::Constant(Matrix({{3, 4}}));
  EXPECT_TRUE(linalg::AllClose((a + b).value(), Matrix({{4, 6}})));
  EXPECT_TRUE(linalg::AllClose((a - b).value(), Matrix({{-2, -2}})));
  EXPECT_TRUE(linalg::AllClose((a * b).value(), Matrix({{3, 8}})));
  EXPECT_TRUE(linalg::AllClose((-a).value(), Matrix({{-1, -2}})));
  EXPECT_TRUE(linalg::AllClose((2.0 * a).value(), Matrix({{2, 4}})));
}

}  // namespace
}  // namespace tsg::ag

namespace tsg::ag {
namespace {

TEST(GraphShapeTest, DiamondDependencyGradIsCorrect) {
  // y = x*x + x*x reuses the same intermediate twice: d/dx = 4x.
  Var x = Var::Parameter(Matrix({{3.0}}));
  x.ZeroGrad();
  const Var sq = Square(x);
  Backward(Sum(Add(sq, sq)));
  EXPECT_NEAR(x.grad()(0, 0), 4.0 * 3.0, 1e-12);
}

TEST(GraphShapeTest, DeepChainSurvives) {
  // 200 chained adds: exercises the iterative (non-recursive) topo sort.
  Var x = Var::Parameter(Matrix({{1.0}}));
  x.ZeroGrad();
  Var y = x;
  for (int i = 0; i < 200; ++i) y = ScalarMul(y, 1.01);
  Backward(Sum(y));
  EXPECT_NEAR(x.grad()(0, 0), std::pow(1.01, 200), 1e-9);
}

TEST(GraphShapeTest, WideFanOutAccumulates) {
  Var x = Var::Parameter(Matrix({{2.0}}));
  x.ZeroGrad();
  Var total = ScalarMul(x, 1.0);
  for (int i = 0; i < 32; ++i) total = Add(total, x);
  Backward(Sum(total));
  EXPECT_NEAR(x.grad()(0, 0), 33.0, 1e-12);
}

TEST(GraphShapeTest, MixedConstantSubgraphIsSkipped) {
  // A large constant-only subgraph must not affect gradients or crash.
  Var x = Var::Parameter(Matrix({{1.5}}));
  x.ZeroGrad();
  Var c = Var::Constant(Matrix({{2.0}}));
  for (int i = 0; i < 10; ++i) c = Add(Square(c), c);
  EXPECT_FALSE(c.requires_grad());
  Backward(Sum(Mul(x, Tanh(Var::Constant(Matrix({{0.3}}))))));
  EXPECT_NEAR(x.grad()(0, 0), std::tanh(0.3), 1e-12);
}

TEST(EdgeCaseTest, MeanOfEmptyMatrixIsZero) {
  const Var empty = Var::Constant(Matrix(0, 0));
  EXPECT_DOUBLE_EQ(Mean(empty).value()(0, 0), 0.0);
}

TEST(EdgeCaseTest, ScalarChainOnOneByOne) {
  Var x = Var::Parameter(Matrix({{0.5}}));
  x.ZeroGrad();
  Backward(Sqrt(Square(x)));  // Identity for x > 0: gradient 1.
  EXPECT_NEAR(x.grad()(0, 0), 1.0, 1e-9);
}

// ---- Fused layer/gate ops: gradcheck every epilogue variant. ----

class FusedActGradTest : public ::testing::TestWithParam<Act> {};

TEST_P(FusedActGradTest, LinearBiasActMatchesNumericalGradient) {
  const Act act = GetParam();
  Rng rng(91);
  Var x = RandomParam(3, 4, rng, 0.5);
  Var w = RandomParam(4, 5, rng, 0.5);
  Var b = RandomParam(1, 5, rng, 0.5);
  ExpectGradCheck([&] { return Sum(Square(LinearBiasAct(x, w, b, act, 0.1))); },
                  {x, w, b}, 1e-5, 1e-5);
}

TEST_P(FusedActGradTest, GateBiasActMatchesNumericalGradient) {
  const Act act = GetParam();
  Rng rng(92);
  Var x = RandomParam(3, 4, rng, 0.5);
  Var wx = RandomParam(4, 5, rng, 0.5);
  Var h = RandomParam(3, 6, rng, 0.5);
  Var wh = RandomParam(6, 5, rng, 0.5);
  Var b = RandomParam(1, 5, rng, 0.5);
  ExpectGradCheck(
      [&] { return Sum(Square(GateBiasAct(x, wx, h, wh, b, act, 0.1))); },
      {x, wx, h, wh, b}, 1e-5, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(AllEpilogues, FusedActGradTest,
                         ::testing::Values(Act::kNone, Act::kRelu,
                                           Act::kLeakyRelu, Act::kSigmoid,
                                           Act::kTanh, Act::kSoftplus),
                         [](const auto& info) {
                           switch (info.param) {
                             case Act::kNone: return "None";
                             case Act::kRelu: return "Relu";
                             case Act::kLeakyRelu: return "LeakyRelu";
                             case Act::kSigmoid: return "Sigmoid";
                             case Act::kTanh: return "Tanh";
                             case Act::kSoftplus: return "Softplus";
                           }
                           return "Unknown";
                         });

TEST(FusedOpGradTest, GateBlendMatchesNumericalGradient) {
  Rng rng(93);
  Var z = RandomParam(3, 4, rng, 0.3);
  Var h = RandomParam(3, 4, rng, 0.7);
  Var n = RandomParam(3, 4, rng, 0.7);
  ExpectGradCheck([&] { return Sum(Square(GateBlend(z, h, n))); }, {z, h, n});
}

TEST(FusedOpGradTest, AddScaledMatchesNumericalGradient) {
  Rng rng(95);
  Var a = RandomParam(3, 4, rng);
  Var b = RandomParam(3, 4, rng);
  ExpectGradCheck([&] { return Sum(Square(AddScaled(a, b, 0.125))); }, {a, b});
}

TEST(FusedOpValueTest, AddScaledMatchesUnfusedComposition) {
  Rng rng(96);
  Var a = RandomParam(4, 5, rng);
  Var b = RandomParam(4, 5, rng);
  const double alpha = 0.37;
  const Var fused = AddScaled(a, b, alpha);
  const Var composed = Add(a, ScalarMul(b, alpha));
  ASSERT_TRUE(fused.value().SameShape(composed.value()));
  for (int64_t i = 0; i < fused.value().size(); ++i) {
    // Same add and multiply per element; only the (possible) contraction of
    // a[i] + alpha * b[i] into one rounding differs between the two forms.
    EXPECT_NEAR(fused.value()[i], composed.value()[i], 1e-15);
  }
}

TEST(FusedOpGradTest, MulAddMatchesNumericalGradient) {
  Rng rng(94);
  Var a = RandomParam(2, 3, rng);
  Var b = RandomParam(2, 3, rng);
  Var c = RandomParam(2, 3, rng);
  Var d = RandomParam(2, 3, rng);
  ExpectGradCheck([&] { return Sum(Square(MulAdd(a, b, c, d))); }, {a, b, c, d});
}

TEST(FusedOpValueTest, LinearBiasActMatchesUnfusedComposition) {
  Rng rng(95);
  Var x = RandomParam(4, 6, rng);
  Var w = RandomParam(6, 3, rng);
  Var b = RandomParam(1, 3, rng);
  const Matrix fused = LinearBiasAct(x, w, b, Act::kTanh).value();
  const Matrix unfused = Tanh(AddRowVec(MatMul(x, w), b)).value();
  for (int64_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused[i], unfused[i], 1e-12) << "element " << i;
  }
}

TEST(FusedOpValueTest, GateBlendMatchesComposition) {
  Rng rng(96);
  Var z = RandomParam(3, 3, rng, 0.2);
  Var h = RandomParam(3, 3, rng);
  Var n = RandomParam(3, 3, rng);
  const Matrix fused = GateBlend(z, h, n).value();
  const Matrix composed =
      Add(Mul(z, h), Mul(ScalarAdd(Neg(z), 1.0), n)).value();
  for (int64_t i = 0; i < fused.size(); ++i) {
    EXPECT_NEAR(fused[i], composed[i], 1e-14);
  }
}

// ---- Step arena / tape scope behavior. ----

TEST(StepScopeTest, GraphsInsideScopeUsePooledNodes) {
  ASSERT_EQ(Tape::Active(), nullptr);
  const StepScope scope;
  ASSERT_NE(Tape::Active(), nullptr);
  const Var c = Var::Constant(Matrix(2, 2));
  EXPECT_TRUE(c.node()->pooled);
  // Parameters always live on the heap: their values and gradients must
  // survive the scope for the optimizer.
  const Var p = Var::Parameter(Matrix(2, 2));
  EXPECT_FALSE(p.node()->pooled);
}

TEST(StepScopeTest, GradientsMatchHeapModeExactly) {
  // The same graph, built pooled and heap, must produce bit-identical
  // gradients: pooling changes where memory lives, never what is computed.
  const auto run = [](bool pooled) {
    Matrix ga, gw;
    Rng rng(97);
    Matrix ma(3, 4), mw(4, 2);
    rng.FillNormal(ma.data(), ma.size());
    rng.FillNormal(mw.data(), mw.size());
    Var a = Var::Parameter(ma);
    Var w = Var::Parameter(mw);
    {
      std::unique_ptr<StepScope> scope;
      if (pooled) scope = std::make_unique<StepScope>();
      a.ZeroGrad();
      w.ZeroGrad();
      Backward(Mean(Square(Tanh(MatMul(a, w)))));
      ga = a.grad();
      gw = w.grad();
    }
    return std::make_pair(ga, gw);
  };
  const auto [heap_a, heap_w] = run(false);
  const auto [pool_a, pool_w] = run(true);
  for (int64_t i = 0; i < heap_a.size(); ++i) {
    EXPECT_EQ(heap_a[i], pool_a[i]) << "a grad " << i;
  }
  for (int64_t i = 0; i < heap_w.size(); ++i) {
    EXPECT_EQ(heap_w[i], pool_w[i]) << "w grad " << i;
  }
}

TEST(StepScopeTest, ParameterGradsSurviveScopeExit) {
  Var p = Var::Parameter(Matrix({{1.0, 2.0}}));
  {
    const StepScope scope;
    p.ZeroGrad();
    Backward(Sum(Square(p)));
  }
  EXPECT_DOUBLE_EQ(p.grad()(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(p.grad()(0, 1), 4.0);
}

TEST(StepScopeTest, ArenaReplaysWithoutGrowthAfterWarmup) {
  Rng rng(98);
  Var w = RandomParam(8, 8, rng, 0.3);
  const Matrix input(4, 8, 0.5);
  for (int step = 0; step < 5; ++step) {
    const StepScope scope;
    w.ZeroGrad();
    Backward(Mean(Square(Tanh(MatMul(Var::Constant(input), w)))));
  }
  // Identical graph shapes replay entirely out of retained chunks: no chunk
  // growth after the warm-up step is steady-state by definition.
  const StepScope probe;
  EXPECT_EQ(Tape::Active()->steady_state_chunk_allocs(), 0);
}

TEST(StepScopeTest, NestedScopesAreNoOps) {
  const StepScope outer;
  Tape* tape = Tape::Active();
  const Var a = Var::Constant(Matrix(2, 2));
  {
    const StepScope inner;
    EXPECT_EQ(Tape::Active(), tape);
    const Var b = Var::Constant(Matrix(2, 2));
    EXPECT_TRUE(b.node()->pooled);
  }
  // Inner scope exit must not have reset the tape: `a` is still alive.
  EXPECT_NE(Tape::Active(), nullptr);
  EXPECT_GT(Tape::Active()->nodes_since_reset(), 0);
}

}  // namespace
}  // namespace tsg::ag
