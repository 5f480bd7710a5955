#ifndef TSG_NN_MODULE_H_
#define TSG_NN_MODULE_H_

#include <cstdint>
#include <vector>

#include "ag/ops.h"
#include "ag/variable.h"
#include "base/rng.h"

namespace tsg::nn {

using ag::Var;

/// Base class for trainable components. A module owns parameter Vars; Parameters()
/// exposes them for optimizers and serialization. Forward signatures vary per layer
/// (single matrix, sequence, state-carrying), so they are defined by each subclass.
class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters, in a stable order.
  virtual std::vector<Var> Parameters() const = 0;

  /// Total scalar parameter count (for reporting).
  int64_t NumParameters() const {
    int64_t n = 0;
    for (const Var& p : Parameters()) n += p.value().size();
    return n;
  }
};

/// Collects parameters from several modules into one flat list.
std::vector<Var> CollectParameters(std::initializer_list<const Module*> modules);

/// Glorot/Xavier-uniform initialized weight matrix: U(+-sqrt(6/(fan_in+fan_out))).
Var GlorotParameter(int64_t fan_in, int64_t fan_out, Rng& rng);

/// Transformer-style sinusoidal positional encodings, one row per time step. Decoders
/// that expand a single latent vector into a sequence add these rows to their
/// per-step inputs; without them a recurrent/state-space decoder driven by a constant
/// input converges to its fixed point and collapses to the data mean.
linalg::Matrix SinusoidalPositions(int64_t len, int64_t dim);

/// Zero-initialized bias row vector (1 x n).
Var ZeroBias(int64_t n);

}  // namespace tsg::nn

#endif  // TSG_NN_MODULE_H_
