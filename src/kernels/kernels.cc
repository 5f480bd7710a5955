#include "kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "base/aligned.h"
#include "base/thread_pool.h"

namespace tsg::kernels {

namespace {

/// Micro-kernel register tile: kMr rows x kNr columns (kNr = two vector
/// registers), eight live accumulators — small enough to stay in registers on
/// every 16-register target, wide enough to amortize the A broadcasts.
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 2 * kLanes;
/// Depth block: one packed B panel of kKc x kNr doubles (16 KiB) stays
/// L1-resident across a whole row sweep.
constexpr int64_t kKc = 256;
/// Multiply-add count below which a GEMM is not worth forking for (matches the
/// pre-kernel linalg threshold: ~64^3 stays inline on the calling thread).
constexpr int64_t kGrainFlops = int64_t{1} << 18;
/// Below this, packing costs more than it saves: run the unpacked streaming
/// loop. Depends only on (m, n, k), so both backends and all thread counts make
/// the same choice.
constexpr int64_t kSmallFlops = int64_t{1} << 16;

/// Per-thread packing panels that only ever grow: after the first pass over a
/// given problem size, packing touches no allocator. The A and B panels are
/// distinct thread_locals because the calling thread both packs B and, when it
/// participates in its own ParallelFor, packs A micro-panels.
double* TlsPack(base::AlignedBuffer<double>& buf, size_t count) {
  if (buf.size() < count) {
    buf = base::AlignedBuffer<double>(std::max(count, buf.size() * 2));
  }
  return buf.data();
}

double* TlsPackA(size_t count) {
  thread_local base::AlignedBuffer<double> buf;
  return TlsPack(buf, count);
}

double* TlsPackB(size_t count) {
  thread_local base::AlignedBuffer<double> buf;
  return TlsPack(buf, count);
}

/// Element (logical row i, depth p) of A or, when kTransA, of A^T read in place.
template <bool kTransA>
inline double AElem(const double* a, int64_t lda, int64_t i, int64_t p) {
  return kTransA ? a[p * lda + i] : a[i * lda + p];
}

/// Unpacked streaming GEMM for small shapes. Register blocks of kMr C rows keep
/// their accumulators live across the whole depth loop and share every B load
/// four ways; row and column tails fall back to single-row / scalar loops. Each
/// C element still accumulates exactly one product per ascending p — the same
/// per-element order as the packed path and the reference block — so the result
/// is bit-identical to the plain i-p-j form.
///
/// kZeroC treats C as zero on entry instead of reading it (accumulators start
/// at Zero(); the tail paths memset their slice first). Accumulating onto an
/// exact zero is the identical value sequence, so kZeroC produces the same
/// bits as memset + the accumulate form — it just skips a full pass over C.
template <typename V, bool kTransA, bool kZeroC = false>
void GemmSmall(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
               const double* b, int64_t ldb, double* c, int64_t ldc) {
  int64_t i = 0;
  for (; i + kMr <= m; i += kMr) {
    double* c0 = c + i * ldc;
    double* c1 = c0 + ldc;
    double* c2 = c1 + ldc;
    double* c3 = c2 + ldc;
    int64_t j = 0;
    // 4x8 register tile first (the unpacked twin of MicroKernel): one splat of
    // each A element feeds two B registers, halving loop overhead per column.
    for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
      V acc00 = kZeroC ? V::Zero() : V::Load(c0 + j);
      V acc01 = kZeroC ? V::Zero() : V::Load(c0 + j + kLanes);
      V acc10 = kZeroC ? V::Zero() : V::Load(c1 + j);
      V acc11 = kZeroC ? V::Zero() : V::Load(c1 + j + kLanes);
      V acc20 = kZeroC ? V::Zero() : V::Load(c2 + j);
      V acc21 = kZeroC ? V::Zero() : V::Load(c2 + j + kLanes);
      V acc30 = kZeroC ? V::Zero() : V::Load(c3 + j);
      V acc31 = kZeroC ? V::Zero() : V::Load(c3 + j + kLanes);
      for (int64_t p = 0; p < k; ++p) {
        const V vb0 = V::Load(b + p * ldb + j);
        const V vb1 = V::Load(b + p * ldb + j + kLanes);
        V va = V::Splat(AElem<kTransA>(a, lda, i + 0, p));
        acc00.FmaAccum(va, vb0);
        acc01.FmaAccum(va, vb1);
        va = V::Splat(AElem<kTransA>(a, lda, i + 1, p));
        acc10.FmaAccum(va, vb0);
        acc11.FmaAccum(va, vb1);
        va = V::Splat(AElem<kTransA>(a, lda, i + 2, p));
        acc20.FmaAccum(va, vb0);
        acc21.FmaAccum(va, vb1);
        va = V::Splat(AElem<kTransA>(a, lda, i + 3, p));
        acc30.FmaAccum(va, vb0);
        acc31.FmaAccum(va, vb1);
      }
      acc00.Store(c0 + j);
      acc01.Store(c0 + j + kLanes);
      acc10.Store(c1 + j);
      acc11.Store(c1 + j + kLanes);
      acc20.Store(c2 + j);
      acc21.Store(c2 + j + kLanes);
      acc30.Store(c3 + j);
      acc31.Store(c3 + j + kLanes);
    }
    for (; j + kLanes <= n; j += kLanes) {
      V acc0 = kZeroC ? V::Zero() : V::Load(c0 + j);
      V acc1 = kZeroC ? V::Zero() : V::Load(c1 + j);
      V acc2 = kZeroC ? V::Zero() : V::Load(c2 + j);
      V acc3 = kZeroC ? V::Zero() : V::Load(c3 + j);
      for (int64_t p = 0; p < k; ++p) {
        const V vb = V::Load(b + p * ldb + j);
        acc0.FmaAccum(V::Splat(AElem<kTransA>(a, lda, i + 0, p)), vb);
        acc1.FmaAccum(V::Splat(AElem<kTransA>(a, lda, i + 1, p)), vb);
        acc2.FmaAccum(V::Splat(AElem<kTransA>(a, lda, i + 2, p)), vb);
        acc3.FmaAccum(V::Splat(AElem<kTransA>(a, lda, i + 3, p)), vb);
      }
      acc0.Store(c0 + j);
      acc1.Store(c1 + j);
      acc2.Store(c2 + j);
      acc3.Store(c3 + j);
    }
    // Column tail: p-outer memory accumulation, never a scalar p-reduction
    // loop — the compiler in-order-vectorizes those with a separately rounded
    // multiply, silently breaking the FMA contraction the contract promises.
    if (j < n) {
      for (int64_t r = 0; r < kMr; ++r) {
        double* c_row = c + (i + r) * ldc;
        if constexpr (kZeroC) {
          std::memset(c_row + j, 0, static_cast<size_t>(n - j) * sizeof(double));
        }
        for (int64_t p = 0; p < k; ++p) {
          const double aip = AElem<kTransA>(a, lda, i + r, p);
          const double* b_row = b + p * ldb;
          for (int64_t jj = j; jj < n; ++jj) c_row[jj] += aip * b_row[jj];
        }
      }
    }
  }
  // Row tail (m % kMr): the original single-row i-p-j form.
  for (; i < m; ++i) {
    double* c_row = c + i * ldc;
    if constexpr (kZeroC) {
      std::memset(c_row, 0, static_cast<size_t>(n) * sizeof(double));
    }
    for (int64_t p = 0; p < k; ++p) {
      const double aip = AElem<kTransA>(a, lda, i, p);
      const double* b_row = b + p * ldb;
      const V va = V::Splat(aip);
      int64_t j = 0;
      for (; j + kLanes <= n; j += kLanes) {
        V acc = V::Load(c_row + j);
        acc.FmaAccum(va, V::Load(b_row + j));
        acc.Store(c_row + j);
      }
      for (; j < n; ++j) c_row[j] += aip * b_row[j];
    }
  }
}

/// Scalar reference block shared by both backends: handles the row tail
/// (m % kMr) and column tail (n % kNr) around the micro-kernel. Ascending-p
/// per-element accumulation keeps its values interchangeable with the
/// micro-kernel's, element for element.
template <bool kTransA>
void GemmRefBlock(const double* a, int64_t lda, const double* b, int64_t ldb,
                  double* c, int64_t ldc, int64_t i0, int64_t i1, int64_t j0,
                  int64_t j1, int64_t pc, int64_t kc) {
  for (int64_t i = i0; i < i1; ++i) {
    double* c_row = c + i * ldc;
    for (int64_t p = pc; p < pc + kc; ++p) {
      const double aip = AElem<kTransA>(a, lda, i, p);
      const double* b_row = b + p * ldb;
      for (int64_t j = j0; j < j1; ++j) c_row[j] += aip * b_row[j];
    }
  }
}

/// Packs the (kc x kMr) A micro-panel for rows [i0, i0 + kMr) into p-major
/// order: dst[p * kMr + r] = A(i0 + r, pc + p). Loop order follows the source
/// layout (rows for plain A, depth for A^T) so reads stay contiguous.
template <bool kTransA>
void PackA(const double* a, int64_t lda, int64_t i0, int64_t pc, int64_t kc,
           double* dst) {
  if constexpr (kTransA) {
    for (int64_t p = 0; p < kc; ++p) {
      const double* src = a + (pc + p) * lda + i0;
      std::memcpy(dst + p * kMr, src, kMr * sizeof(double));
    }
  } else {
    for (int64_t r = 0; r < kMr; ++r) {
      const double* src = a + (i0 + r) * lda + pc;
      for (int64_t p = 0; p < kc; ++p) dst[p * kMr + r] = src[p];
    }
  }
}

/// Packs B rows [pc, pc + kc) for the full column panels [0, n_main) into
/// panel-major order: panel jp/kNr holds kc rows of kNr contiguous doubles.
void PackB(const double* b, int64_t ldb, int64_t pc, int64_t kc, int64_t n_main,
           double* dst) {
  for (int64_t jp = 0; jp < n_main; jp += kNr) {
    double* panel = dst + jp * kc;
    for (int64_t p = 0; p < kc; ++p) {
      std::memcpy(panel + p * kNr, b + (pc + p) * ldb + jp, kNr * sizeof(double));
    }
  }
}

/// The FMA micro-kernel: C[0..kMr)[0..kNr) += Apanel * Bpanel over kc depth
/// steps, entirely in registers. Per element: one fused multiply-add per
/// ascending p — the canonical GEMM accumulation order.
template <typename V>
void MicroKernel(const double* a_pack, const double* b_pack, int64_t kc,
                 double* c, int64_t ldc) {
  V acc00 = V::Load(c);
  V acc01 = V::Load(c + kLanes);
  V acc10 = V::Load(c + ldc);
  V acc11 = V::Load(c + ldc + kLanes);
  V acc20 = V::Load(c + 2 * ldc);
  V acc21 = V::Load(c + 2 * ldc + kLanes);
  V acc30 = V::Load(c + 3 * ldc);
  V acc31 = V::Load(c + 3 * ldc + kLanes);
  for (int64_t p = 0; p < kc; ++p) {
    const V b0 = V::Load(b_pack + p * kNr);
    const V b1 = V::Load(b_pack + p * kNr + kLanes);
    const double* ap = a_pack + p * kMr;
    V va = V::Splat(ap[0]);
    acc00.FmaAccum(va, b0);
    acc01.FmaAccum(va, b1);
    va = V::Splat(ap[1]);
    acc10.FmaAccum(va, b0);
    acc11.FmaAccum(va, b1);
    va = V::Splat(ap[2]);
    acc20.FmaAccum(va, b0);
    acc21.FmaAccum(va, b1);
    va = V::Splat(ap[3]);
    acc30.FmaAccum(va, b0);
    acc31.FmaAccum(va, b1);
  }
  acc00.Store(c);
  acc01.Store(c + kLanes);
  acc10.Store(c + ldc);
  acc11.Store(c + ldc + kLanes);
  acc20.Store(c + 2 * ldc);
  acc21.Store(c + 2 * ldc + kLanes);
  acc30.Store(c + 3 * ldc);
  acc31.Store(c + 3 * ldc + kLanes);
}

/// Blocked + packed GEMM driver (C += A * B, or A^T * B when kTransA). Depth is
/// processed in ascending kKc blocks; each block packs one shared B slab, then
/// row tiles of kMr rows fan out over the pool (each task packs its own A
/// micro-panels). Every C element is owned by exactly one task per block and
/// folds its products in ascending p order, so the result is bit-identical for
/// any thread count and identical between the SIMD and scalar backends.
template <typename V, bool kTransA>
void GemmDriver(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                const double* b, int64_t ldb, double* c, int64_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (m * n * k < kSmallFlops) {
    GemmSmall<V, kTransA>(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  const int64_t m_main = m - m % kMr;
  const int64_t n_main = n - n % kNr;
  const int64_t tiles = m_main / kMr;
  for (int64_t pc = 0; pc < k; pc += kKc) {
    const int64_t kc = std::min(kKc, k - pc);
    double* b_pack = TlsPackB(static_cast<size_t>(kc * n_main));
    PackB(b, ldb, pc, kc, n_main, b_pack);
    const int64_t tile_flops = kMr * n * kc;
    const int64_t grain =
        std::max<int64_t>(1, kGrainFlops / std::max<int64_t>(1, tile_flops));
    base::ParallelFor(0, tiles, grain, [&](int64_t t0, int64_t t1) {
      double* a_pack = TlsPackA(static_cast<size_t>(kc * kMr));
      for (int64_t t = t0; t < t1; ++t) {
        const int64_t i0 = t * kMr;
        PackA<kTransA>(a, lda, i0, pc, kc, a_pack);
        for (int64_t jp = 0; jp < n_main; jp += kNr) {
          MicroKernel<V>(a_pack, b_pack + jp * kc, kc, c + i0 * ldc + jp, ldc);
        }
        if (n_main < n) {
          GemmRefBlock<kTransA>(a, lda, b, ldb, c, ldc, i0, i0 + kMr, n_main, n,
                                pc, kc);
        }
      }
    });
    if (m_main < m) {
      GemmRefBlock<kTransA>(a, lda, b, ldb, c, ldc, m_main, m, 0, n, pc, kc);
    }
  }
}

/// C += A * B^T driver: each C element is one row-row dot product in the
/// canonical lane-split Dot order; rows fan out over the pool. Blocks of four
/// A rows run their dots against each B row simultaneously (one load of the B
/// row feeds four accumulators); every dot performs exactly the DotImpl
/// operation sequence, so blocking does not change a single bit.
template <typename V>
void GemmTransBDriver(int64_t m, int64_t n, int64_t k, const double* a,
                      int64_t lda, const double* b, int64_t ldb, double* c,
                      int64_t ldc) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const int64_t row_flops = n * k;
  const int64_t grain =
      std::max<int64_t>(1, kGrainFlops / std::max<int64_t>(1, row_flops));
  base::ParallelFor(0, m, grain, [&](int64_t i0, int64_t i1) {
    int64_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      const double* a0 = a + i * lda;
      const double* a1 = a0 + lda;
      const double* a2 = a1 + lda;
      const double* a3 = a2 + lda;
      double* c_row = c + i * ldc;
      int64_t j = 0;
      // Column pairs: the four A-row chunk loads are shared across two B rows
      // (eight concurrent dots). Each dot's own operation sequence is exactly
      // DotImpl's, so the pairing changes nothing in the results.
      for (; j + 2 <= n; j += 2) {
        const double* b0_row = b + j * ldb;
        const double* b1_row = b0_row + ldb;
        V s00 = V::Zero();
        V s01 = V::Zero();
        V s10 = V::Zero();
        V s11 = V::Zero();
        V s20 = V::Zero();
        V s21 = V::Zero();
        V s30 = V::Zero();
        V s31 = V::Zero();
        int64_t p = 0;
        for (; p + kLanes <= k; p += kLanes) {
          const V vb0 = V::Load(b0_row + p);
          const V vb1 = V::Load(b1_row + p);
          V va = V::Load(a0 + p);
          s00.FmaAccum(va, vb0);
          s01.FmaAccum(va, vb1);
          va = V::Load(a1 + p);
          s10.FmaAccum(va, vb0);
          s11.FmaAccum(va, vb1);
          va = V::Load(a2 + p);
          s20.FmaAccum(va, vb0);
          s21.FmaAccum(va, vb1);
          va = V::Load(a3 + p);
          s30.FmaAccum(va, vb0);
          s31.FmaAccum(va, vb1);
        }
        for (int l = 0; p + l < k; ++l) {
          const double b0p = b0_row[p + l];
          const double b1p = b1_row[p + l];
          s00.AddToLane(l, a0[p + l] * b0p);
          s01.AddToLane(l, a0[p + l] * b1p);
          s10.AddToLane(l, a1[p + l] * b0p);
          s11.AddToLane(l, a1[p + l] * b1p);
          s20.AddToLane(l, a2[p + l] * b0p);
          s21.AddToLane(l, a2[p + l] * b1p);
          s30.AddToLane(l, a3[p + l] * b0p);
          s31.AddToLane(l, a3[p + l] * b1p);
        }
        c_row[j] += (s00.GetLane(0) + s00.GetLane(1)) + (s00.GetLane(2) + s00.GetLane(3));
        c_row[j + 1] +=
            (s01.GetLane(0) + s01.GetLane(1)) + (s01.GetLane(2) + s01.GetLane(3));
        c_row[ldc + j] +=
            (s10.GetLane(0) + s10.GetLane(1)) + (s10.GetLane(2) + s10.GetLane(3));
        c_row[ldc + j + 1] +=
            (s11.GetLane(0) + s11.GetLane(1)) + (s11.GetLane(2) + s11.GetLane(3));
        c_row[2 * ldc + j] +=
            (s20.GetLane(0) + s20.GetLane(1)) + (s20.GetLane(2) + s20.GetLane(3));
        c_row[2 * ldc + j + 1] +=
            (s21.GetLane(0) + s21.GetLane(1)) + (s21.GetLane(2) + s21.GetLane(3));
        c_row[3 * ldc + j] +=
            (s30.GetLane(0) + s30.GetLane(1)) + (s30.GetLane(2) + s30.GetLane(3));
        c_row[3 * ldc + j + 1] +=
            (s31.GetLane(0) + s31.GetLane(1)) + (s31.GetLane(2) + s31.GetLane(3));
      }
      for (; j < n; ++j) {
        const double* b_row = b + j * ldb;
        V s0 = V::Zero();
        V s1 = V::Zero();
        V s2 = V::Zero();
        V s3 = V::Zero();
        int64_t p = 0;
        for (; p + kLanes <= k; p += kLanes) {
          const V vb = V::Load(b_row + p);
          s0.FmaAccum(V::Load(a0 + p), vb);
          s1.FmaAccum(V::Load(a1 + p), vb);
          s2.FmaAccum(V::Load(a2 + p), vb);
          s3.FmaAccum(V::Load(a3 + p), vb);
        }
        for (int l = 0; p + l < k; ++l) {
          const double bp = b_row[p + l];
          s0.AddToLane(l, a0[p + l] * bp);
          s1.AddToLane(l, a1[p + l] * bp);
          s2.AddToLane(l, a2[p + l] * bp);
          s3.AddToLane(l, a3[p + l] * bp);
        }
        c_row[j] += (s0.GetLane(0) + s0.GetLane(1)) + (s0.GetLane(2) + s0.GetLane(3));
        c_row[ldc + j] +=
            (s1.GetLane(0) + s1.GetLane(1)) + (s1.GetLane(2) + s1.GetLane(3));
        c_row[2 * ldc + j] +=
            (s2.GetLane(0) + s2.GetLane(1)) + (s2.GetLane(2) + s2.GetLane(3));
        c_row[3 * ldc + j] +=
            (s3.GetLane(0) + s3.GetLane(1)) + (s3.GetLane(2) + s3.GetLane(3));
      }
    }
    for (; i < i1; ++i) {
      const double* a_row = a + i * lda;
      double* c_row = c + i * ldc;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] += detail::DotImpl<V>(a_row, b + j * ldb, k);
      }
    }
  });
}

}  // namespace

bool GemmUsesFma() {
#if defined(__FMA__)
  return true;
#else
  return false;
#endif
}

namespace scalar {

void Gemm(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
          const double* b, int64_t ldb, double* c, int64_t ldc) {
  GemmDriver<detail::VecScalar, false>(m, n, k, a, lda, b, ldb, c, ldc);
}
void GemmTransA(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                const double* b, int64_t ldb, double* c, int64_t ldc) {
  GemmDriver<detail::VecScalar, true>(m, n, k, a, lda, b, ldb, c, ldc);
}
void GemmTransB(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                const double* b, int64_t ldb, double* c, int64_t ldc) {
  GemmTransBDriver<detail::VecScalar>(m, n, k, a, lda, b, ldb, c, ldc);
}

}  // namespace scalar

#if TSG_KERNELS_SIMD
namespace simd {

void Gemm(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
          const double* b, int64_t ldb, double* c, int64_t ldc) {
  GemmDriver<detail::VecSimd, false>(m, n, k, a, lda, b, ldb, c, ldc);
}
void GemmTransA(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                const double* b, int64_t ldb, double* c, int64_t ldc) {
  GemmDriver<detail::VecSimd, true>(m, n, k, a, lda, b, ldb, c, ldc);
}
void GemmTransB(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                const double* b, int64_t ldb, double* c, int64_t ldc) {
  GemmTransBDriver<detail::VecSimd>(m, n, k, a, lda, b, ldb, c, ldc);
}

}  // namespace simd
#endif  // TSG_KERNELS_SIMD

// ---- Fused epilogues and element-wise lanes. --------------------------------
// One implementation each (no backend split): element-wise, or fixed
// ascending-order chains, so the values cannot depend on the backend, lane
// width, or thread count.

namespace {

/// Vector type for the fused lanes below: the compiled backend's, chosen by
/// TSG_KERNELS_SIMD like `active`. These kernels have a single implementation,
/// and every vectorized loop keeps the scalar form's per-element operation
/// order, so the choice of vector type changes throughput only, never values.
#if TSG_KERNELS_SIMD
using VFused = detail::VecSimd;
#else
using VFused = detail::VecScalar;
#endif

inline double StableSigmoid(double x) {
  if (x >= 0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

inline double ActApply(Act act, double leak, double x) {
  switch (act) {
    case Act::kNone:
      return x;
    case Act::kRelu:
      return x > 0 ? x : 0.0;
    case Act::kLeakyRelu:
      return x > 0 ? x : leak * x;
    case Act::kSigmoid:
      return StableSigmoid(x);
    case Act::kTanh:
      return std::tanh(x);
    case Act::kSoftplus:
      return std::max(x, 0.0) + std::log1p(std::exp(-std::fabs(x)));
  }
  return x;
}

}  // namespace

void Scale(int64_t n, double alpha, double* x) {
  for (int64_t i = 0; i < n; ++i) x[i] *= alpha;
}

namespace {

/// Single-pass rows with the activation fixed at compile time, so the ActApply
/// switch folds away and the relu/leaky loops auto-vectorize. The fusion of
/// bias add and activation is value-preserving: ActApply(x + b) and
/// (x += b; ActApply(x)) are the same add followed by the same function.
template <Act kAct, bool kBias, bool kPre>
void BiasActRows(int64_t m, int64_t n, double* c, int64_t ldc,
                 const double* bias, double leak, double* pre_out) {
  for (int64_t i = 0; i < m; ++i) {
    double* row = c + i * ldc;
    double* pre_row = kPre ? pre_out + i * ldc : nullptr;
    for (int64_t j = 0; j < n; ++j) {
      const double pre = kBias ? row[j] + bias[j] : row[j];
      if constexpr (kPre) pre_row[j] = pre;
      row[j] = ActApply(kAct, leak, pre);
    }
  }
}

template <Act kAct>
void BiasActDispatch(int64_t m, int64_t n, double* c, int64_t ldc,
                     const double* bias, double leak, double* pre_out) {
  if (pre_out != nullptr) {
    bias != nullptr ? BiasActRows<kAct, true, true>(m, n, c, ldc, bias, leak, pre_out)
                    : BiasActRows<kAct, false, true>(m, n, c, ldc, bias, leak, pre_out);
  } else {
    bias != nullptr ? BiasActRows<kAct, true, false>(m, n, c, ldc, bias, leak, pre_out)
                    : BiasActRows<kAct, false, false>(m, n, c, ldc, bias, leak, pre_out);
  }
}

}  // namespace

void BiasActInPlace(int64_t m, int64_t n, double* c, int64_t ldc,
                    const double* bias, Act act, double leak, double* pre_out) {
  if (act == Act::kNone && pre_out == nullptr) {
    if (bias == nullptr) return;
    for (int64_t i = 0; i < m; ++i) {
      double* row = c + i * ldc;
      int64_t j = 0;
      for (; j + kLanes <= n; j += kLanes) {
        VFused::Load(row + j).Add(VFused::Load(bias + j)).Store(row + j);
      }
      for (; j < n; ++j) row[j] += bias[j];
    }
    return;
  }
  switch (act) {
    case Act::kNone:
      return BiasActDispatch<Act::kNone>(m, n, c, ldc, bias, leak, pre_out);
    case Act::kRelu:
      return BiasActDispatch<Act::kRelu>(m, n, c, ldc, bias, leak, pre_out);
    case Act::kLeakyRelu:
      return BiasActDispatch<Act::kLeakyRelu>(m, n, c, ldc, bias, leak, pre_out);
    case Act::kSigmoid:
      return BiasActDispatch<Act::kSigmoid>(m, n, c, ldc, bias, leak, pre_out);
    case Act::kTanh:
      return BiasActDispatch<Act::kTanh>(m, n, c, ldc, bias, leak, pre_out);
    case Act::kSoftplus:
      return BiasActDispatch<Act::kSoftplus>(m, n, c, ldc, bias, leak, pre_out);
  }
}

void GemmBiasAct(int64_t m, int64_t n, int64_t k, const double* a, int64_t lda,
                 const double* b, int64_t ldb, const double* bias, double* c,
                 int64_t ldc, Act act, double leak, double* pre_out) {
  if (m > 0 && n > 0 && m * n * std::max<int64_t>(k, 0) < kSmallFlops) {
    // Beta-zero small path: skips the memset pass and the C reload. Same bits
    // as memset + Gemm (see GemmSmall's kZeroC note); VFused is the vector
    // type of the backend Gemm runs.
    GemmSmall<VFused, false, /*kZeroC=*/true>(m, n, k, a, lda, b, ldb, c, ldc);
  } else {
    for (int64_t i = 0; i < m; ++i) {
      std::memset(c + i * ldc, 0, n * sizeof(double));
    }
    Gemm(m, n, k, a, lda, b, ldb, c, ldc);
  }
  BiasActInPlace(m, n, c, ldc, bias, act, leak, pre_out);
}

void ActBackwardMul(Act act, double leak, int64_t size, const double* g,
                    const double* out, const double* pre, double* dpre) {
  switch (act) {
    case Act::kNone:
      std::memcpy(dpre, g, size * sizeof(double));
      return;
    case Act::kRelu:
      // out > 0 iff pre > 0, so the output is enough to recover the mask.
      for (int64_t i = 0; i < size; ++i) dpre[i] = out[i] > 0 ? g[i] : 0.0;
      return;
    case Act::kLeakyRelu:
      for (int64_t i = 0; i < size; ++i) {
        dpre[i] = out[i] > 0 ? g[i] : leak * g[i];
      }
      return;
    case Act::kSigmoid:
      for (int64_t i = 0; i < size; ++i) {
        dpre[i] = g[i] * out[i] * (1.0 - out[i]);
      }
      return;
    case Act::kTanh:
      for (int64_t i = 0; i < size; ++i) {
        dpre[i] = g[i] * (1.0 - out[i] * out[i]);
      }
      return;
    case Act::kSoftplus:
      // softplus'(x) = sigmoid(x); needs the stashed pre-activation.
      for (int64_t i = 0; i < size; ++i) {
        dpre[i] = g[i] * StableSigmoid(pre[i]);
      }
      return;
  }
}

void ColSumAccum(int64_t m, int64_t n, const double* src, int64_t lds,
                 double* dst) {
  // Column chunks of kLanes ride in one register across all rows (the scalar
  // row-major form re-loads and re-stores dst m times per column, and the
  // dst alias blocks auto-vectorization). Every dst[j] still folds its rows in
  // ascending i order, so the result is bit-identical to the scalar form.
  int64_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    VFused acc = VFused::Load(dst + j);
    for (int64_t i = 0; i < m; ++i) {
      acc = acc.Add(VFused::Load(src + i * lds + j));
    }
    acc.Store(dst + j);
  }
  for (; j < n; ++j) {
    double s = dst[j];
    for (int64_t i = 0; i < m; ++i) s += src[i * lds + j];
    dst[j] = s;
  }
}

void AdamUpdate(int64_t n, double lr, double beta1, double beta2, double eps,
                double bias_corr1, double bias_corr2, const double* g,
                double* m, double* v, double* p) {
  for (int64_t i = 0; i < n; ++i) {
    m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
    v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
    const double m_hat = m[i] / bias_corr1;
    const double v_hat = v[i] / bias_corr2;
    p[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

void SgdMomentumUpdate(int64_t n, double lr, double momentum, const double* g,
                       double* vel, double* p) {
  for (int64_t i = 0; i < n; ++i) {
    vel[i] = momentum * vel[i] - lr * g[i];
    p[i] += vel[i];
  }
}

}  // namespace tsg::kernels
