#include "base/rng.h"

#include <cmath>

namespace tsg {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
  has_spare_normal_ = false;
}

uint64_t Rng::NextUint64() {
  // xoshiro256++ step.
  const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t n) {
  TSG_CHECK_GT(n, 0);
  // Rejection sampling removes modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t v = NextUint64();
  while (v >= limit) v = NextUint64();
  return static_cast<int64_t>(v % un);
}

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

void Rng::FillNormal(double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = Normal();
}

std::vector<int64_t> Rng::Permutation(int64_t n) {
  std::vector<int64_t> perm(n);
  for (int64_t i = 0; i < n; ++i) perm[i] = i;
  for (int64_t i = n - 1; i > 0; --i) {
    const int64_t j = UniformInt(i + 1);
    std::swap(perm[i], perm[j]);
  }
  return perm;
}

}  // namespace tsg
