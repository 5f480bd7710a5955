#ifndef TSG_BASE_RNG_H_
#define TSG_BASE_RNG_H_

#include <cstdint>
#include <vector>

#include "base/check.h"

namespace tsg {

/// Deterministic pseudo-random number generator used by every stochastic component in
/// the benchmark. A SplitMix64-seeded xoshiro256++ core: fast, high-quality, and fully
/// reproducible across platforms (unlike std::normal_distribution, whose output is
/// implementation-defined). All samplers are implemented on top of the raw 64-bit
/// stream so the same seed yields the same experiment everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) { Seed(seed); }

  /// Re-seeds the generator; the stream is a pure function of this value.
  void Seed(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  /// Standard normal via the polar Box-Muller method (cached spare value).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Fills `out` with i.i.d. standard normals.
  void FillNormal(double* out, int64_t n);

  /// Fisher-Yates shuffle of indices [0, n); returns the permutation.
  std::vector<int64_t> Permutation(int64_t n);

 private:
  uint64_t state_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace tsg

#endif  // TSG_BASE_RNG_H_
