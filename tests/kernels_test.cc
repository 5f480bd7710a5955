// Tests for the kernel layer (src/kernels): exactness against naive references
// on edge shapes, bit-identity between the active and scalar backends, and
// bit-identity across thread counts — the two determinism guarantees DESIGN.md
// §6 promises.
#include "kernels/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "base/aligned.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "gtest/gtest.h"

namespace tsg {
namespace {

/// Forces the global pool to `n`-way execution for the duration of a scope.
class ScopedParallelism {
 public:
  explicit ScopedParallelism(int n) {
    base::ThreadPool::Global().SetMaxParallelism(n);
  }
  ~ScopedParallelism() { base::ThreadPool::Global().SetMaxParallelism(0); }
};

std::vector<double> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.Normal();
  return v;
}

/// Naive C += A*B (or A^T*B) with a single accumulator per element in ascending
/// p order — the exact order the kernel contract promises, so comparisons
/// against Gemm/GemmTransA are bitwise, not approximate. Each accumulation uses
/// the rounding the compiled drivers use: std::fma when the kernels TU was
/// built with FMA contraction, separate multiply-then-add otherwise.
void NaiveGemm(bool trans_a, int64_t m, int64_t n, int64_t k, const double* a,
               const double* b, double* c) {
  const bool fused = tsg::kernels::GemmUsesFma();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double s = c[i * n + j];
      for (int64_t p = 0; p < k; ++p) {
        const double aip = trans_a ? a[p * m + i] : a[i * k + p];
        s = fused ? std::fma(aip, b[p * n + j], s) : s + aip * b[p * n + j];
      }
      c[i * n + j] = s;
    }
  }
}

bool BitEqual(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

struct Shape {
  int64_t m, n, k;
};

// Edge shapes: single rows/columns, odd tails in every dimension, exact
// micro-tile multiples, and shapes big enough to cross the packed-path and
// fork thresholds.
const Shape kShapes[] = {{1, 1, 1},    {1, 17, 1},  {17, 1, 3},   {3, 5, 4},
                         {4, 8, 16},   {5, 9, 7},   {8, 16, 300}, {13, 29, 31},
                         {65, 33, 129}, {96, 80, 70}};

TEST(KernelsGemmTest, MatchesNaiveAscendingOrderBitwise) {
  for (const Shape& s : kShapes) {
    const auto a = RandomVec(s.m * s.k, 1);
    const auto b = RandomVec(s.k * s.n, 2);
    const auto c0 = RandomVec(s.m * s.n, 3);  // Nonzero C exercises +=.
    auto want = c0;
    NaiveGemm(false, s.m, s.n, s.k, a.data(), b.data(), want.data());
    auto got = c0;
    kernels::Gemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, got.data(), s.n);
    EXPECT_TRUE(BitEqual(want, got)) << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(KernelsGemmTest, TransAMatchesNaiveBitwise) {
  for (const Shape& s : kShapes) {
    const auto a = RandomVec(s.k * s.m, 4);  // a is k x m, read as A^T.
    const auto b = RandomVec(s.k * s.n, 5);
    const auto c0 = RandomVec(s.m * s.n, 6);
    auto want = c0;
    NaiveGemm(true, s.m, s.n, s.k, a.data(), b.data(), want.data());
    auto got = c0;
    kernels::GemmTransA(s.m, s.n, s.k, a.data(), s.m, b.data(), s.n, got.data(),
                        s.n);
    EXPECT_TRUE(BitEqual(want, got)) << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(KernelsGemmTest, TransBCloseToNaiveAndBitwiseEqualToScalarBackend) {
  for (const Shape& s : kShapes) {
    const auto a = RandomVec(s.m * s.k, 7);
    const auto bt = RandomVec(s.n * s.k, 8);  // b is n x k, read as B^T.
    // TransB uses the lane-split dot order, so the naive comparison is
    // tolerance-based; the scalar-backend comparison is bitwise.
    std::vector<double> naive(static_cast<size_t>(s.m * s.n), 0.0);
    for (int64_t i = 0; i < s.m; ++i) {
      for (int64_t j = 0; j < s.n; ++j) {
        double acc = 0.0;
        for (int64_t p = 0; p < s.k; ++p) acc += a[i * s.k + p] * bt[j * s.k + p];
        naive[static_cast<size_t>(i * s.n + j)] = acc;
      }
    }
    std::vector<double> got(static_cast<size_t>(s.m * s.n), 0.0);
    kernels::GemmTransB(s.m, s.n, s.k, a.data(), s.k, bt.data(), s.k, got.data(),
                        s.n);
    for (size_t i = 0; i < got.size(); ++i) EXPECT_NEAR(got[i], naive[i], 1e-12);
    std::vector<double> scalar_out(static_cast<size_t>(s.m * s.n), 0.0);
    kernels::scalar::GemmTransB(s.m, s.n, s.k, a.data(), s.k, bt.data(), s.k,
                                scalar_out.data(), s.n);
    EXPECT_TRUE(BitEqual(scalar_out, got));
  }
}

TEST(KernelsGemmTest, ActiveBackendBitwiseEqualToScalarBackend) {
  for (const Shape& s : kShapes) {
    const auto a = RandomVec(s.m * s.k, 9);
    const auto b = RandomVec(s.k * s.n, 10);
    std::vector<double> c_active(static_cast<size_t>(s.m * s.n), 0.0);
    std::vector<double> c_scalar = c_active;
    kernels::Gemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, c_active.data(),
                  s.n);
    kernels::scalar::Gemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                          c_scalar.data(), s.n);
    EXPECT_TRUE(BitEqual(c_scalar, c_active)) << s.m << "x" << s.n << "x" << s.k;
  }
}

TEST(KernelsGemmTest, EmptyDimensionsLeaveCUntouched) {
  const auto c0 = RandomVec(12, 11);
  auto c = c0;
  const double dummy = 0.0;
  kernels::Gemm(0, 3, 4, &dummy, 4, &dummy, 3, c.data(), 3);
  kernels::Gemm(4, 0, 3, &dummy, 3, &dummy, 0, c.data(), 0);
  kernels::Gemm(3, 4, 0, &dummy, 0, &dummy, 4, c.data(), 4);
  kernels::GemmTransA(3, 4, 0, &dummy, 3, &dummy, 4, c.data(), 4);
  kernels::GemmTransB(3, 0, 4, &dummy, 4, &dummy, 4, c.data(), 0);
  EXPECT_TRUE(BitEqual(c0, c));
}

TEST(KernelsGemmTest, BitIdenticalAcrossThreadCounts) {
  // Odd shape, large enough that the packed path forks row tiles.
  const Shape s{193, 161, 131};
  const auto a = RandomVec(s.m * s.k, 12);
  const auto b = RandomVec(s.k * s.n, 13);
  std::vector<double> serial(static_cast<size_t>(s.m * s.n), 0.0);
  {
    ScopedParallelism scoped(1);
    kernels::Gemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, serial.data(),
                  s.n);
  }
  std::vector<double> wide(static_cast<size_t>(s.m * s.n), 0.0);
  {
    ScopedParallelism scoped(4);
    kernels::Gemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, wide.data(), s.n);
  }
  EXPECT_TRUE(BitEqual(serial, wide));
}

/// The active and scalar backends' Dot and SquaredDistance agree bit for bit
/// on (a, b), and SquaredDistance is symmetric bit for bit on both backends,
/// so a distance matrix may fill one triangle and mirror it.
void ExpectBackendsAgree(const std::vector<double>& a, const std::vector<double>& b) {
  const int64_t n = static_cast<int64_t>(a.size());
  const double* x = a.data();
  const double* y = b.data();
  EXPECT_TRUE(BitEqual({kernels::Dot(x, y, n)}, {kernels::scalar::Dot(x, y, n)})) << n;
  const double sq = kernels::SquaredDistance(x, y, n);
  const double scalar_sq = kernels::scalar::SquaredDistance(x, y, n);
  EXPECT_TRUE(BitEqual({sq}, {scalar_sq})) << n;
  EXPECT_TRUE(BitEqual({kernels::SquaredDistance(y, x, n)}, {sq})) << n;
  EXPECT_TRUE(BitEqual({kernels::scalar::SquaredDistance(y, x, n)}, {scalar_sq})) << n;
}

TEST(KernelsPrimitivesTest, DotAndSquaredDistanceTailsMatchScalarBitwise) {
  // Every tail length, after at most two main-loop iterations.
  for (int64_t n = 0; n <= 9; ++n) {
    const auto a = RandomVec(n, 14);
    const auto b = RandomVec(n, 15);
    ExpectBackendsAgree(a, b);
    // Tolerance sanity against the plain left-to-right reference.
    double dot = 0.0, sq = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      dot += a[static_cast<size_t>(i)] * b[static_cast<size_t>(i)];
      const double d = a[static_cast<size_t>(i)] - b[static_cast<size_t>(i)];
      sq += d * d;
    }
    EXPECT_NEAR(kernels::Dot(a.data(), b.data(), n), dot, 1e-12);
    EXPECT_NEAR(kernels::SquaredDistance(a.data(), b.data(), n), sq, 1e-12);
  }
  // Many main-loop iterations before the tail: 750 is one flattened StockLong
  // series (l = 125, N = 6), the length MMD's distances run at.
  for (int64_t n : {64, 750, 1003}) {
    ExpectBackendsAgree(RandomVec(n, 14), RandomVec(n, 15));
  }
}

TEST(KernelsPrimitivesTest, SquaredDistanceOfIdenticalInputsIsExactlyZero) {
  const auto a = RandomVec(1003, 16);
  EXPECT_EQ(kernels::SquaredDistance(a.data(), a.data(), 1003), 0.0);
}

TEST(KernelsPrimitivesTest, AxpyMatchesElementwiseReferenceBitwise) {
  for (int64_t n : {0, 1, 3, 4, 5, 8, 13, 100}) {
    const auto x = RandomVec(n, 17);
    const auto y0 = RandomVec(n, 18);
    auto want = y0;
    for (int64_t i = 0; i < n; ++i)
      want[static_cast<size_t>(i)] += 1.7 * x[static_cast<size_t>(i)];
    auto got = y0;
    kernels::Axpy(n, 1.7, x.data(), got.data());
    EXPECT_TRUE(BitEqual(want, got)) << n;
  }
}

TEST(KernelsBackendTest, BackendNameMatchesSimdCompiled) {
  EXPECT_STREQ(kernels::BackendName(),
               kernels::SimdCompiled() ? "simd-v4" : "scalar-v4");
  EXPECT_EQ(kernels::ResolvedDispatch() == kernels::DispatchMode::kSimd,
            kernels::SimdCompiled());
}

// ---- Fused epilogues and element-wise lanes. --------------------------------

using kernels::Act;

constexpr double kLeak = 0.1;

/// Reference activation matching the kernel's formulas (incl. the stable
/// sigmoid branch), so comparisons can be exact where no reordering exists.
double RefAct(Act act, double x) {
  switch (act) {
    case Act::kNone:
      return x;
    case Act::kRelu:
      return x > 0 ? x : 0.0;
    case Act::kLeakyRelu:
      return x > 0 ? x : kLeak * x;
    case Act::kSigmoid:
      return x >= 0 ? 1.0 / (1.0 + std::exp(-x))
                    : std::exp(x) / (1.0 + std::exp(x));
    case Act::kTanh:
      return std::tanh(x);
    case Act::kSoftplus:
      return std::max(x, 0.0) + std::log1p(std::exp(-std::fabs(x)));
  }
  return x;
}

const Act kAllActs[] = {Act::kNone,    Act::kRelu, Act::kLeakyRelu,
                        Act::kSigmoid, Act::kTanh, Act::kSoftplus};

TEST(KernelsEpilogueTest, ScaleMatchesElementwiseReferenceBitwise) {
  for (int64_t n : {0, 1, 5, 64, 131}) {
    const auto x0 = RandomVec(n, 21);
    auto want = x0;
    for (auto& v : want) v *= -0.37;
    auto got = x0;
    kernels::Scale(n, -0.37, got.data());
    EXPECT_TRUE(BitEqual(want, got)) << n;
  }
}

TEST(KernelsEpilogueTest, BiasActInPlaceMatchesReferenceAndStashesPre) {
  const int64_t m = 7, n = 13, ldc = 16;  // ldc > n exercises the stride.
  for (Act act : kAllActs) {
    auto c = RandomVec(m * ldc, 22);
    const auto c0 = c;
    const auto bias = RandomVec(n, 23);
    std::vector<double> pre(static_cast<size_t>(m * ldc), -77.0);
    kernels::BiasActInPlace(m, n, c.data(), ldc, bias.data(), act, kLeak,
                            pre.data());
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        const double want_pre = c0[i * ldc + j] + bias[j];
        EXPECT_EQ(pre[i * ldc + j], want_pre);
        EXPECT_EQ(c[i * ldc + j], RefAct(act, want_pre));
      }
      // Padding between rows must be untouched.
      for (int64_t j = n; j < ldc; ++j) EXPECT_EQ(c[i * ldc + j], c0[i * ldc + j]);
    }
  }
}

TEST(KernelsEpilogueTest, BiasActInPlaceNullBiasAndNullPre) {
  const int64_t m = 3, n = 5;
  auto c = RandomVec(m * n, 24);
  const auto c0 = c;
  kernels::BiasActInPlace(m, n, c.data(), n, nullptr, Act::kTanh, 0.0, nullptr);
  for (size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], std::tanh(c0[i]));
}

// The reference runs the scalar backend's Gemm, so every activation on the
// small-path shapes (the first three) and the packed-path one (the last) is
// compared bitwise with the scalar backend, whichever backend the build runs.
TEST(KernelsEpilogueTest, GemmBiasActMatchesGemmThenEpilogue) {
  for (const Shape& s : {Shape{3, 5, 4}, Shape{13, 29, 31}, Shape{31, 27, 45},
                         Shape{65, 33, 129}}) {
    const auto a = RandomVec(s.m * s.k, 25);
    const auto b = RandomVec(s.k * s.n, 26);
    const auto bias = RandomVec(s.n, 27);
    for (Act act : kAllActs) {
      std::vector<double> want(static_cast<size_t>(s.m * s.n), 0.0);
      kernels::scalar::Gemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                            want.data(), s.n);
      std::vector<double> want_pre = want;
      kernels::BiasActInPlace(s.m, s.n, want.data(), s.n, bias.data(), act,
                              kLeak, want_pre.data());
      std::vector<double> got(static_cast<size_t>(s.m * s.n), 99.0);  // Not 0:
      // GemmBiasAct must zero C itself (it is = not +=).
      std::vector<double> got_pre(got.size(), 0.0);
      kernels::GemmBiasAct(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                           bias.data(), got.data(), s.n, act, kLeak,
                           got_pre.data());
      EXPECT_TRUE(BitEqual(want, got)) << static_cast<int>(act);
      EXPECT_TRUE(BitEqual(want_pre, got_pre)) << static_cast<int>(act);
    }
  }
}

TEST(KernelsEpilogueTest, ActBackwardMulMatchesAnalyticDerivatives) {
  const int64_t n = 257;
  const auto pre = RandomVec(n, 31);
  const auto g = RandomVec(n, 32);
  for (Act act : kAllActs) {
    std::vector<double> out(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i)
      out[static_cast<size_t>(i)] = RefAct(act, pre[static_cast<size_t>(i)]);
    std::vector<double> dpre(static_cast<size_t>(n), 0.0);
    kernels::ActBackwardMul(act, kLeak, n, g.data(), out.data(), pre.data(),
                            dpre.data());
    for (int64_t i = 0; i < n; ++i) {
      const double x = pre[static_cast<size_t>(i)];
      const double y = out[static_cast<size_t>(i)];
      double deriv = 1.0;
      switch (act) {
        case Act::kNone:
          deriv = 1.0;
          break;
        case Act::kRelu:
          deriv = x > 0 ? 1.0 : 0.0;
          break;
        case Act::kLeakyRelu:
          deriv = x > 0 ? 1.0 : kLeak;
          break;
        case Act::kSigmoid:
          deriv = y * (1.0 - y);
          break;
        case Act::kTanh:
          deriv = 1.0 - y * y;
          break;
        case Act::kSoftplus:
          deriv = RefAct(Act::kSigmoid, x);
          break;
      }
      EXPECT_NEAR(dpre[static_cast<size_t>(i)], g[static_cast<size_t>(i)] * deriv,
                  1e-15)
          << static_cast<int>(act) << " at " << i;
    }
  }
}

TEST(KernelsEpilogueTest, ColSumAccumMatchesNaiveColumnSums) {
  const int64_t m = 9, n = 7, lds = 11;
  const auto src = RandomVec(m * lds, 33);
  const auto dst0 = RandomVec(n, 34);  // Nonzero dst exercises +=.
  auto want = dst0;
  for (int64_t j = 0; j < n; ++j) {
    double s = want[static_cast<size_t>(j)];
    for (int64_t i = 0; i < m; ++i) s += src[static_cast<size_t>(i * lds + j)];
    want[static_cast<size_t>(j)] = s;
  }
  auto got = dst0;
  kernels::ColSumAccum(m, n, src.data(), lds, got.data());
  EXPECT_TRUE(BitEqual(want, got));
}

TEST(KernelsOptimizerTest, AdamUpdateMatchesScalarRecurrence) {
  const int64_t n = 37;
  const double lr = 1e-3, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  const auto g = RandomVec(n, 35);
  auto m_got = RandomVec(n, 36);
  auto v_got = RandomVec(n, 37);
  for (auto& v : v_got) v = std::fabs(v);  // Second moments are nonnegative.
  auto p_got = RandomVec(n, 38);
  auto m_want = m_got, v_want = v_got, p_want = p_got;
  const double bc1 = 1.0 - std::pow(beta1, 5), bc2 = 1.0 - std::pow(beta2, 5);
  for (int64_t i = 0; i < n; ++i) {
    const size_t s = static_cast<size_t>(i);
    m_want[s] = beta1 * m_want[s] + (1.0 - beta1) * g[s];
    v_want[s] = beta2 * v_want[s] + (1.0 - beta2) * g[s] * g[s];
    p_want[s] -= lr * (m_want[s] / bc1) / (std::sqrt(v_want[s] / bc2) + eps);
  }
  kernels::AdamUpdate(n, lr, beta1, beta2, eps, bc1, bc2, g.data(),
                      m_got.data(), v_got.data(), p_got.data());
  // The kernels TU may be compiled with FMA contraction (see GemmUsesFma),
  // this TU is not — so the comparison is tight-tolerance, not bitwise. The
  // lane itself is deterministic by construction (one implementation, no
  // reordering), which the backend/thread-identity checks cover elsewhere.
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    EXPECT_NEAR(m_got[i], m_want[i], 1e-14);
    EXPECT_NEAR(v_got[i], v_want[i], 1e-14);
    EXPECT_NEAR(p_got[i], p_want[i], 1e-14);
  }
}

TEST(KernelsOptimizerTest, SgdMomentumUpdateMatchesScalarRecurrence) {
  const int64_t n = 29;
  const double lr = 0.01, momentum = 0.9;
  const auto g = RandomVec(n, 39);
  auto vel_got = RandomVec(n, 40);
  auto p_got = RandomVec(n, 41);
  auto vel_want = vel_got, p_want = p_got;
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    vel_want[i] = momentum * vel_want[i] - lr * g[i];
    p_want[i] += vel_want[i];
  }
  kernels::SgdMomentumUpdate(n, lr, momentum, g.data(), vel_got.data(),
                             p_got.data());
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    EXPECT_NEAR(vel_got[i], vel_want[i], 1e-14);
    EXPECT_NEAR(p_got[i], p_want[i], 1e-14);
  }
}

TEST(AlignedBufferTest, DataIsCacheLineAlignedAndMoveTransfersOwnership) {
  base::AlignedBuffer<double> buf(37);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) %
                base::AlignedBuffer<double>::kAlignment,
            0u);
  EXPECT_EQ(buf.size(), 37u);
  double* p = buf.data();
  base::AlignedBuffer<double> moved = std::move(buf);
  EXPECT_EQ(moved.data(), p);
  EXPECT_EQ(buf.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  base::AlignedBuffer<double> empty(0);
  EXPECT_EQ(empty.data(), nullptr);
}

}  // namespace
}  // namespace tsg
