#ifndef TSG_KERNELS_VEC_H_
#define TSG_KERNELS_VEC_H_

#include <cstdint>
#include <cstring>

// Backend selection: the one place the kernel backend, and the SIMD backend's
// register type (VecSimd below), are chosen, at build time (nothing switches
// either at run time). CMake defines TSG_ENABLE_SIMD_BUILD=1
// (option TSG_ENABLE_SIMD, default ON) on tsg_kernels and everything that links
// it; the vector backend additionally requires GNU vector extensions
// (GCC/Clang). Any other combination falls back to the scalar backend, which
// runs the *same* algorithms in the same per-lane arithmetic order — see the
// determinism contract in DESIGN.md §6.
#if defined(TSG_ENABLE_SIMD_BUILD) && (defined(__GNUC__) || defined(__clang__))
#define TSG_KERNELS_SIMD 1
#else
#define TSG_KERNELS_SIMD 0
#endif

namespace tsg::kernels {

/// Logical lane count of the kernel layer. Fixed at 4 doubles (one 256-bit
/// register on AVX targets, two 128-bit registers elsewhere) in *both* backends:
/// the scalar backend emulates the same 4 lanes so that lane-split reductions
/// produce bit-identical results whether or not SIMD is enabled.
inline constexpr int kLanes = 4;

namespace detail {

/// Scalar emulation of a 4-double register. Every operation applies the same
/// single multiply/add per lane as the SIMD register, in the same order, so a
/// kernel templated on VecScalar is bit-identical to one templated on VecSimd.
struct VecScalar {
  double lane[kLanes];

  static VecScalar Zero() { return {{0.0, 0.0, 0.0, 0.0}}; }
  static VecScalar Splat(double x) { return {{x, x, x, x}}; }
  static VecScalar Load(const double* p) {
    VecScalar v;
    std::memcpy(v.lane, p, sizeof(v.lane));
    return v;
  }
  void Store(double* p) const { std::memcpy(p, lane, sizeof(lane)); }

  /// lane[l] += a.lane[l] * b.lane[l] — the FMA-shaped accumulate every kernel
  /// is built from (contracted to a real FMA when the target supports it).
  void FmaAccum(const VecScalar& a, const VecScalar& b) {
    for (int l = 0; l < kLanes; ++l) lane[l] += a.lane[l] * b.lane[l];
  }
  VecScalar Sub(const VecScalar& o) const {
    VecScalar v;
    for (int l = 0; l < kLanes; ++l) v.lane[l] = lane[l] - o.lane[l];
    return v;
  }
  VecScalar Add(const VecScalar& o) const {
    VecScalar v;
    for (int l = 0; l < kLanes; ++l) v.lane[l] = lane[l] + o.lane[l];
    return v;
  }
  double GetLane(int l) const { return lane[l]; }
  void AddToLane(int l, double x) { lane[l] += x; }
};

#if TSG_KERNELS_SIMD
/// 4-double SIMD register as one 32-byte GNU vector: one AVX instruction per
/// operation, with no intrinsics and no runtime dispatch. Loads and stores go
/// through memcpy so unaligned rows are well-defined (lowered to unaligned
/// vector moves).
struct VecSimd256 {
  typedef double Reg __attribute__((vector_size(kLanes * sizeof(double))));
  Reg reg;

  static VecSimd256 Zero() { return {Reg{0.0, 0.0, 0.0, 0.0}}; }
  static VecSimd256 Splat(double x) { return {Reg{x, x, x, x}}; }
  static VecSimd256 Load(const double* p) {
    VecSimd256 v;
    std::memcpy(&v.reg, p, sizeof(v.reg));
    return v;
  }
  void Store(double* p) const { std::memcpy(p, &reg, sizeof(reg)); }

  void FmaAccum(const VecSimd256& a, const VecSimd256& b) { reg += a.reg * b.reg; }
  VecSimd256 Sub(const VecSimd256& o) const { return {reg - o.reg}; }
  VecSimd256 Add(const VecSimd256& o) const { return {reg + o.reg}; }
  double GetLane(int l) const { return reg[l]; }
  void AddToLane(int l, double x) { reg[l] += x; }
};

/// The same four lanes as two 16-byte GNU vectors (lanes 0-1 in `lo`, 2-3 in
/// `hi`), with the same per-lane sub, multiply and add as VecSimd256, so a
/// kernel on either type computes the same bits. A target without AVX has no
/// 32-byte register: GCC splits each VecSimd256 operation into two SSE2 ones
/// but keeps the accumulator in a stack slot, reloading and storing it on every
/// loop iteration. Two 16-byte halves stay in XMM (or NEON) registers.
struct VecSimd2x128 {
  typedef double Half __attribute__((vector_size(2 * sizeof(double))));
  Half lo, hi;

  static VecSimd2x128 Zero() { return {Half{0.0, 0.0}, Half{0.0, 0.0}}; }
  static VecSimd2x128 Splat(double x) { return {Half{x, x}, Half{x, x}}; }
  static VecSimd2x128 Load(const double* p) {
    VecSimd2x128 v;
    std::memcpy(&v.lo, p, sizeof(v.lo));
    std::memcpy(&v.hi, p + 2, sizeof(v.hi));
    return v;
  }
  void Store(double* p) const {
    std::memcpy(p, &lo, sizeof(lo));
    std::memcpy(p + 2, &hi, sizeof(hi));
  }

  void FmaAccum(const VecSimd2x128& a, const VecSimd2x128& b) {
    lo += a.lo * b.lo;
    hi += a.hi * b.hi;
  }
  VecSimd2x128 Sub(const VecSimd2x128& o) const { return {lo - o.lo, hi - o.hi}; }
  VecSimd2x128 Add(const VecSimd2x128& o) const { return {lo + o.lo, hi + o.hi}; }
  double GetLane(int l) const { return l < 2 ? lo[l] : hi[l - 2]; }
  void AddToLane(int l, double x) {
    if (l < 2) {
      lo[l] += x;
    } else {
      hi[l - 2] += x;
    }
  }
};

/// The SIMD backend's register, chosen per translation unit from its compile
/// target: VecSimd256 where AVX is enabled (kernels.cc under TSG_ENABLE_AVX2),
/// VecSimd2x128 everywhere else. Because the two types have different names, a
/// kernel template instantiated in kernels.cc (AVX2+FMA) and the same template
/// instantiated in a TU built for the baseline ISA never share a COMDAT symbol,
/// so the linker cannot hand one TU the other's contraction.
#if defined(__AVX__)
using VecSimd = VecSimd256;
#else
using VecSimd = VecSimd2x128;
#endif
#endif  // TSG_KERNELS_SIMD

}  // namespace detail
}  // namespace tsg::kernels

#endif  // TSG_KERNELS_VEC_H_
