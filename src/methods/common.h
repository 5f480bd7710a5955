#ifndef TSG_METHODS_COMMON_H_
#define TSG_METHODS_COMMON_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ag/ops.h"
#include "ag/tape.h"
#include "base/status.h"
#include "core/dataset.h"
#include "core/method.h"
#include "nn/optimizer.h"
#include "nn/train.h"

namespace tsg::methods {

using ag::Var;
using core::Dataset;
using core::FitOptions;
using linalg::Matrix;

// The training-step and batching helpers live in nn; methods use them unqualified.
using nn::GuardedStep;
using nn::MiniBatcher;
using nn::SequenceBatch;

/// Converts per-step network outputs (each (batch x N)) back into `batch` samples of
/// shape (l x N), clamped into the [0, 1] data range.
std::vector<Matrix> StepsToSamples(const std::vector<Var>& steps);

/// A sequence of i.i.d. Gaussian noise inputs, one (batch x dim) Var per step.
std::vector<Var> NoiseSequence(int64_t steps, int64_t batch, int64_t dim, Rng& rng);

/// A method's integer dimensions as ordered (key, value) pairs: everything its
/// Build needs to construct the networks. Snapshot records them, in this order,
/// as the snapshot's config.
using Dims = std::vector<std::pair<std::string, int64_t>>;

/// Base of the ten paper methods (A1-A10), and their one fitted-state path.
/// Fit lists the dimensions once and hands them to BuildFrom; the private
/// Build is the only place that validates dimensions and constructs networks,
/// and the private State lists every tensor of the fitted state. Snapshot and
/// Restore are written here, once, in terms of the two:
///   - Snapshot = the recorded Dims as config, then the State() tensors.
///   - Restore = parse the config, Build with a placeholder Rng, check the
///     tensor count and every shape, and only then overwrite State().
/// A failed Restore leaves the method unfitted, so Snapshot fails and Generate
/// must not be called.
class PaperMethod : public core::TsgMethod {
 public:
  StatusOr<core::MethodSnapshot> Snapshot() const final;
  Status Restore(const core::MethodSnapshot& snapshot) final;

 protected:
  /// Records `dims` and builds the networks from them, drawing their initial
  /// weights from `rng`. Fit calls this once, before training.
  Status BuildFrom(Dims dims, Rng& rng);

  /// True once BuildFrom or Restore succeeded.
  bool built() const { return built_; }

  /// (key, member) pairs naming where ReadDims stores each dimension.
  using DimFields = std::initializer_list<std::pair<const char*, int64_t*>>;

  /// Copies the `fields` entries of `dims` into their members, for Build. A
  /// missing key or a value below 1 fails naming the key.
  Status ReadDims(const Dims& dims, DimFields fields) const;

 private:
  /// Validates `dims` (via ReadDims plus any method-specific rule) and
  /// constructs the networks.
  virtual Status Build(const Dims& dims, Rng& rng) = 0;

  /// Every tensor of the built model in snapshot order: trainable parameters
  /// first, then any non-parameter state. The pointers alias the networks;
  /// Snapshot reads through them and Restore writes through them.
  virtual std::vector<Matrix*> State() const = 0;

  Dims dims_;
  bool built_ = false;
};

/// The value tensors behind `params`, for State().
std::vector<Matrix*> ValuesOf(const std::vector<Var>& params);

/// FNV-1a digest of a method's hyperparameter spec string — the
/// HyperparameterDigest building block. The spec should name every constant
/// that shapes the architecture or training schedule, so editing one changes
/// the artifact-store key.
uint64_t HyperDigest(std::string_view spec);

/// Effective epoch count: base scaled by FitOptions::epoch_scale, at least 1.
int ResolveEpochs(int base_epochs, const FitOptions& options);

}  // namespace tsg::methods

#endif  // TSG_METHODS_COMMON_H_
