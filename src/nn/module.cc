#include "nn/module.h"

#include <cmath>

namespace tsg::nn {

std::vector<Var> CollectParameters(std::initializer_list<const Module*> modules) {
  std::vector<Var> params;
  for (const Module* m : modules) {
    for (const Var& p : m->Parameters()) params.push_back(p);
  }
  return params;
}

Var GlorotParameter(int64_t fan_in, int64_t fan_out, Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  linalg::Matrix w(fan_in, fan_out);
  for (int64_t i = 0; i < w.size(); ++i) w[i] = rng.Uniform(-limit, limit);
  return Var::Parameter(std::move(w));
}

Var ZeroBias(int64_t n) { return Var::Parameter(linalg::Matrix(1, n)); }

linalg::Matrix SinusoidalPositions(int64_t len, int64_t dim) {
  linalg::Matrix pos(len, dim);
  for (int64_t t = 0; t < len; ++t) {
    for (int64_t k = 0; k < dim; ++k) {
      const double rate =
          std::pow(10000.0, -static_cast<double>(k / 2 * 2) /
                                static_cast<double>(std::max<int64_t>(dim, 1)));
      const double angle = static_cast<double>(t) * rate;
      pos(t, k) = (k % 2 == 0) ? std::sin(angle) : std::cos(angle);
    }
  }
  return pos;
}

}  // namespace tsg::nn
