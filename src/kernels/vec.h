#ifndef TSG_KERNELS_VEC_H_
#define TSG_KERNELS_VEC_H_

#include <cstdint>
#include <cstring>

// Backend selection: the one place the kernel backend is chosen, at build time
// (nothing switches it at run time). CMake defines TSG_ENABLE_SIMD_BUILD=1
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
/// register, or two 128-bit ops on SSE/NEON-class targets) in *both* backends:
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
/// 4-double SIMD register via GNU vector extensions. The compiler lowers the
/// operations to the widest vector ISA of the build target (AVX as one op,
/// SSE2/NEON as two) with no intrinsics and no runtime dispatch. Loads and
/// stores go through memcpy so unaligned rows are well-defined (lowered to
/// unaligned vector moves).
struct VecSimd {
  typedef double Reg __attribute__((vector_size(kLanes * sizeof(double))));
  Reg reg;

  static VecSimd Zero() { return {Reg{0.0, 0.0, 0.0, 0.0}}; }
  static VecSimd Splat(double x) { return {Reg{x, x, x, x}}; }
  static VecSimd Load(const double* p) {
    VecSimd v;
    std::memcpy(&v.reg, p, sizeof(v.reg));
    return v;
  }
  void Store(double* p) const { std::memcpy(p, &reg, sizeof(reg)); }

  void FmaAccum(const VecSimd& a, const VecSimd& b) { reg += a.reg * b.reg; }
  VecSimd Sub(const VecSimd& o) const { return {reg - o.reg}; }
  VecSimd Add(const VecSimd& o) const { return {reg + o.reg}; }
  double GetLane(int l) const { return reg[l]; }
  void AddToLane(int l, double x) { reg[l] += x; }
};
#endif  // TSG_KERNELS_SIMD

}  // namespace detail
}  // namespace tsg::kernels

#endif  // TSG_KERNELS_VEC_H_
