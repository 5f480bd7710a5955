#ifndef TSG_KERNELS_KERNELS_H_
#define TSG_KERNELS_KERNELS_H_

#include <cstdint>

#include "kernels/vec.h"

// SIMD kernel layer: the vectorized primitives every numeric hot loop in the
// repo stands on — GEMM (linalg::MatMul and friends, and through them every
// nn/ag training step), squared distances (ED, the DTW cell recurrence, MMD
// Gram statistics, t-SNE pairwise affinities), and dot/axpy building blocks.
//
// Two backends, one algorithm. The scalar backend (`kernels::scalar`) is always
// compiled; the SIMD backend (`kernels::simd`, GNU vector extensions) exists when
// TSG_KERNELS_SIMD is 1 (CMake option TSG_ENABLE_SIMD, default ON, on a GCC/Clang
// toolchain). Both backends run the identical algorithm at the same logical
// width (kLanes = 4): every output element accumulates its products in the same
// order, so results are **bit-identical between the SIMD and scalar backends**
// and — because parallel partitioning never changes an element's accumulation
// order — **bit-identical across TSG_THREADS**. tests/kernels_test.cc enforces
// both properties; the full contract (and the one toolchain caveat about FP
// contraction flags) is DESIGN.md §6.
//
// Thread-safety: all functions are pure (read inputs, write only the caller's
// output buffer) and safe to call concurrently. The Gemm* family fans out over
// row panels on the global base::ThreadPool above a flop threshold and runs
// serially inline below it or inside an outer parallel region; everything else
// is single-threaded. Packing panels live in thread-local scratch that grows
// monotonically, so a warm GEMM performs zero heap allocations. Errors are
// contract violations only (no Status): callers pass validated shapes.
//
// Backend *selection* is a build-time decision, made in one place: the
// TSG_KERNELS_SIMD macro (vec.h). The `active` namespace alias below names the
// compiled backend, and every unqualified kernel runs it — the Gemm family,
// Dot/SquaredDistance/Axpy and the fused epilogues alike. There is no runtime
// switch: a TSG_ENABLE_SIMD=OFF build runs the scalar backend, and the CI
// scalar-fallback job compares its counts snapshots with a default build's.
namespace tsg::kernels {

/// The backend a build runs; see ResolvedDispatch.
enum class DispatchMode : int { kScalar = 0, kSimd };

/// True when the SIMD backend was compiled in (TSG_ENABLE_SIMD build option).
constexpr bool SimdCompiled() { return TSG_KERNELS_SIMD != 0; }

/// The compiled backend: kSimd exactly when SimdCompiled().
constexpr DispatchMode ResolvedDispatch() {
  return SimdCompiled() ? DispatchMode::kSimd : DispatchMode::kScalar;
}

/// Human-readable backend tag for logs and bench artifacts:
/// "simd-v4" or "scalar-v4" (the compiled backend).
constexpr const char* BackendName() {
  return SimdCompiled() ? "simd-v4" : "scalar-v4";
}

/// Activation tags for the fused GEMM epilogues. Mirrors nn::Activation; lives
/// here so the epilogue and its backward share one scalar definition compiled
/// in exactly one TU (backend- and call-site-independent values).
enum class Act : int { kNone = 0, kRelu, kLeakyRelu, kSigmoid, kTanh, kSoftplus };

/// True when the GEMM drivers were compiled with FMA contraction (x86-64 with
/// TSG_ENABLE_AVX2, see src/kernels/CMakeLists.txt). When true every Gemm /
/// GemmTransA accumulation is a fused multiply-add (one rounding per product,
/// i.e. std::fma semantics); when false it is a separately rounded multiply
/// then add. Either way the order contract holds — this only tells reference
/// implementations which rounding to reproduce.
bool GemmUsesFma();

namespace detail {

/// Lane-split dot product: lane l accumulates products p ≡ l (mod 4) in
/// ascending p order; the tail (n % 4) lands one product per lane starting at
/// lane 0; the four lanes reduce as (l0 + l1) + (l2 + l3). This fixed order is
/// the canonical definition of Dot for *both* backends.
template <typename V>
inline double DotImpl(const double* a, const double* b, int64_t n) {
  V acc = V::Zero();
  int64_t p = 0;
  for (; p + kLanes <= n; p += kLanes) acc.FmaAccum(V::Load(a + p), V::Load(b + p));
  for (int l = 0; p + l < n; ++l) acc.AddToLane(l, a[p + l] * b[p + l]);
  return (acc.GetLane(0) + acc.GetLane(1)) + (acc.GetLane(2) + acc.GetLane(3));
}

/// Lane-split squared Euclidean distance, same ordering scheme as DotImpl.
template <typename V>
inline double SquaredDistanceImpl(const double* a, const double* b, int64_t n) {
  V acc = V::Zero();
  int64_t p = 0;
  for (; p + kLanes <= n; p += kLanes) {
    const V d = V::Load(a + p).Sub(V::Load(b + p));
    acc.FmaAccum(d, d);
  }
  for (int l = 0; p + l < n; ++l) {
    const double d = a[p + l] - b[p + l];
    acc.AddToLane(l, d * d);
  }
  return (acc.GetLane(0) + acc.GetLane(1)) + (acc.GetLane(2) + acc.GetLane(3));
}

/// y[j] += alpha * x[j]. Element-wise, so the lane split cannot change values.
template <typename V>
inline void AxpyImpl(int64_t n, double alpha, const double* x, double* y) {
  const V va = V::Splat(alpha);
  int64_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    V acc = V::Load(y + j);
    acc.FmaAccum(va, V::Load(x + j));
    acc.Store(y + j);
  }
  for (; j < n; ++j) y[j] += alpha * x[j];
}

}  // namespace detail

/// Scalar reference backend. Always compiled, regardless of TSG_ENABLE_SIMD —
/// tests compare the active backend against it bit for bit, and a
/// TSG_ENABLE_SIMD=OFF build runs it.
namespace scalar {

inline double Dot(const double* a, const double* b, int64_t n) {
  return detail::DotImpl<detail::VecScalar>(a, b, n);
}
inline double SquaredDistance(const double* a, const double* b, int64_t n) {
  return detail::SquaredDistanceImpl<detail::VecScalar>(a, b, n);
}
inline void Axpy(int64_t n, double alpha, const double* x, double* y) {
  detail::AxpyImpl<detail::VecScalar>(n, alpha, x, y);
}
void Gemm(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
          const double* b, int64_t ldb, double* c, int64_t ldc);
void GemmTransA(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                const double* b, int64_t ldb, double* c, int64_t ldc);
void GemmTransB(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                const double* b, int64_t ldb, double* c, int64_t ldc);

}  // namespace scalar

#if TSG_KERNELS_SIMD
/// Vectorized backend (GNU vector extensions). Same algorithms, same accumulation
/// order, same values as `scalar` — just wider machine instructions.
namespace simd {

inline double Dot(const double* a, const double* b, int64_t n) {
  return detail::DotImpl<detail::VecSimd>(a, b, n);
}
inline double SquaredDistance(const double* a, const double* b, int64_t n) {
  return detail::SquaredDistanceImpl<detail::VecSimd>(a, b, n);
}
inline void Axpy(int64_t n, double alpha, const double* x, double* y) {
  detail::AxpyImpl<detail::VecSimd>(n, alpha, x, y);
}
void Gemm(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
          const double* b, int64_t ldb, double* c, int64_t ldc);
void GemmTransA(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                const double* b, int64_t ldb, double* c, int64_t ldc);
void GemmTransB(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                const double* b, int64_t ldb, double* c, int64_t ldc);

}  // namespace simd
#endif  // TSG_KERNELS_SIMD

/// The backend every unqualified kernel below runs: the widest compiled one.
#if TSG_KERNELS_SIMD
namespace active = simd;
#else
namespace active = scalar;
#endif

/// sum_p a[p] * b[p] over p in [0, n). Canonical lane-split order (see DotImpl).
inline double Dot(const double* a, const double* b, int64_t n) {
  return active::Dot(a, b, n);
}

/// sum_p (a[p] - b[p])^2 over p in [0, n). Exactly 0.0 for identical inputs
/// (every lane accumulates exact zeros), which the Table 4 "identical input"
/// rows rely on.
inline double SquaredDistance(const double* a, const double* b, int64_t n) {
  return active::SquaredDistance(a, b, n);
}

/// y[j] += alpha * x[j] for j in [0, n).
inline void Axpy(int64_t n, double alpha, const double* x, double* y) {
  active::Axpy(n, alpha, x, y);
}

/// C += A * B for row-major buffers with leading dimensions: A is m x k (lda),
/// B is k x n (ldb), C is m x n (ldc). Accumulating (+=) so callers zero C for a
/// plain product. Every C element folds its k products one at a time in
/// ascending-p order — the invariant behind both determinism guarantees.
/// Large shapes run the packed, register-tiled path (DESIGN.md §6); small ones a
/// vectorized streaming loop; the size dispatch depends only on (m, n, k).
inline void Gemm(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                 const double* b, int64_t ldb, double* c, int64_t ldc) {
  active::Gemm(m, n, k, a, lda, b, ldb, c, ldc);
}

/// C += A^T * B without materializing the transpose: A is k x m (lda), B is
/// k x n (ldb), C is m x n (ldc). Same ordering contract as Gemm — and because
/// the accumulation order per element is identical, GemmTransA(A, B) is
/// bit-identical to Gemm(transpose(A), B).
inline void GemmTransA(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                       const double* b, int64_t ldb, double* c, int64_t ldc) {
  active::GemmTransA(m, n, k, a, lda, b, ldb, c, ldc);
}

/// C += A * B^T without materializing the transpose: A is m x k (lda), B is
/// n x k (ldb), C is m x n (ldc). Row-row dot products in the canonical
/// lane-split Dot order.
inline void GemmTransB(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                       const double* b, int64_t ldb, double* c, int64_t ldc) {
  active::GemmTransB(m, n, k, a, lda, b, ldb, c, ldc);
}

// ---- Fused epilogues and element-wise lanes. --------------------------------
// Each has exactly one implementation, compiled once in kernels.cc: element-wise
// (or fixed ascending-order column chains), so values are independent of the
// backend and thread count by construction.

/// x[i] *= alpha for i in [0, n).
void Scale(int64_t n, double alpha, double* x);

/// In-place fused epilogue over a row-major m x n block with leading dimension
/// ldc: c = act(c + bias) (bias is 1 x n, broadcast over rows; nullptr skips
/// the add). When `pre_out` is non-null it receives the pre-activation values
/// (same m x n/ldc layout) — needed to backprop kSoftplus, whose derivative is
/// not recoverable from the output. `leak` is the kLeakyRelu negative slope.
void BiasActInPlace(int64_t m, int64_t n, double* c, int64_t ldc,
                    const double* bias, Act act, double leak, double* pre_out);

/// Fused forward layer: C = act(A * B + bias). Zeroes C, runs Gemm, then the
/// BiasActInPlace epilogue — one pass over C per stage, no intermediate
/// matrices. Layout contract matches Gemm + BiasActInPlace.
void GemmBiasAct(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                 const double* b, int64_t ldb, const double* bias, double* c,
                 int64_t ldc, Act act, double leak, double* pre_out);

/// Fused activation backward: dpre[i] = g[i] * act'(pre[i]) for i in [0, size),
/// where the derivative is reconstructed from the *output* value (sigmoid/tanh/
/// relu/leaky-relu) or read from the stashed pre-activation (`pre`, required
/// for kSoftplus; may be null otherwise). Contiguous buffers.
void ActBackwardMul(Act act, double leak, int64_t size, const double* g,
                    const double* out, const double* pre, double* dpre);

/// dst[j] += sum_i src(i, j): column sums of a row-major m x n block (leading
/// dimension lds) accumulated into a length-n row — the bias gradient. Each
/// column folds its terms in ascending-i order.
void ColSumAccum(int64_t m, int64_t n, const double* src, int64_t lds,
                 double* dst);

/// Fused Adam update lane over n contiguous elements:
///   m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*g^2
///   p -= lr * (m/bias_corr1) / (sqrt(v/bias_corr2) + eps)
void AdamUpdate(int64_t n, double lr, double beta1, double beta2, double eps,
                double bias_corr1, double bias_corr2, const double* g,
                double* m, double* v, double* p);

/// Fused SGD+momentum update lane: vel = momentum*vel - lr*g; p += vel.
void SgdMomentumUpdate(int64_t n, double lr, double momentum, const double* g,
                       double* vel, double* p);

}  // namespace tsg::kernels

#endif  // TSG_KERNELS_KERNELS_H_
