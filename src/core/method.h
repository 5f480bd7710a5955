#ifndef TSG_CORE_METHOD_H_
#define TSG_CORE_METHOD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "core/dataset.h"

namespace tsg::core {

/// Training configuration shared by all TSG methods. Per the paper's scope rule
/// (§2.2), hyper-parameters stay fixed across datasets; only the global budget knobs
/// here vary between quick runs and paper-scale runs.
struct FitOptions {
  /// Multiplies every method's built-in epoch count. 1.0 = the default budget used by
  /// the bench binaries; raise for higher-fidelity runs.
  double epoch_scale = 1.0;
  int64_t batch_size = 32;
  uint64_t seed = 42;
  /// 0 = silent, 1 = per-phase progress lines on stderr.
  int verbosity = 0;
};

/// The complete fitted state of a method, as data: scalar configuration (dims,
/// architecture sizes — everything Restore needs to rebuild the networks) plus
/// the ordered tensor list (trainable parameters, followed by any non-parameter
/// state such as VQ codebooks). A restored method must Generate bit-identically
/// to the instance that produced the snapshot.
struct MethodSnapshot {
  /// Ordered (key, value) pairs; values are whitespace-free tokens.
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<Matrix> params;
};

class TsgMethod;

/// Identity of one trained model in the artifact store. Two fits agree on every
/// field here exactly when they would produce bit-identical models, so the key
/// is safe to use as a cache address: method + hyperparameter digest pin the
/// code, dataset fingerprint pins the training data, and the FitOptions budget
/// knobs pin the training schedule.
struct ModelKey {
  /// The key of `method` fitted on `train` under `fit`: the one derivation the
  /// harness, the daemon's job runner and tests share, so they all address the
  /// same artifact.
  static ModelKey For(const TsgMethod& method, const Dataset& train,
                      const FitOptions& fit);

  std::string method;
  /// TsgMethod::HyperparameterDigest() — bumps when a method's architecture or
  /// training hyperparameters change.
  uint64_t hyper_digest = 0;
  /// Dataset::Fingerprint() of the training split.
  uint64_t dataset_fingerprint = 0;
  uint64_t seed = 0;
  double epoch_scale = 1.0;
  int64_t batch_size = 0;
};

/// Persistence interface the harness trains against. Implemented by
/// store::ArtifactStore; kept abstract here so core does not depend on the
/// store library.
class ModelStore {
 public:
  virtual ~ModelStore() = default;

  /// Fetches the snapshot for `key`. kNotFound = cache miss (train and Save);
  /// other errors mean the artifact exists but is unusable (corrupt, version
  /// skew) — callers should retrain and overwrite.
  virtual StatusOr<MethodSnapshot> Load(const ModelKey& key) = 0;

  /// Publishes a snapshot under `key`, atomically replacing any prior artifact.
  virtual Status Save(const ModelKey& key, const MethodSnapshot& snapshot) = 0;
};

/// One generation request in a batched Generate call: `count` series drawn from
/// a fresh Rng seeded with `seed`.
struct GenRequest {
  int64_t count = 0;
  uint64_t seed = 0;
};

/// Interface every TSG method (A1-A10) implements. The lifecycle is
/// Fit(train) -> Generate(count): generation must be usable repeatedly and
/// independently after a single Fit. Instances are not thread-safe during Fit;
/// after Fit returns, Generate is const and may run concurrently as long as each
/// caller passes its own Rng.
class TsgMethod {
 public:
  virtual ~TsgMethod() = default;
  TsgMethod() = default;
  TsgMethod(const TsgMethod&) = delete;
  TsgMethod& operator=(const TsgMethod&) = delete;

  /// Trains the generative model on `train` ((R, l, N) in [0,1]). Returns a
  /// non-OK Status when training diverges (NaN/Inf loss or gradient, via the
  /// GuardedStep guard) or the input is unusable; the model is then not fit and
  /// Generate must not be called.
  virtual Status Fit(const Dataset& train, const FitOptions& options) = 0;

  /// Samples `count` synthetic series of the fitted shape (l x N). All
  /// randomness comes from `rng`, so a fixed (fit, seed) pair reproduces the
  /// samples bit-identically.
  virtual std::vector<Matrix> Generate(int64_t count, Rng& rng) const = 0;

  /// Serves several generation requests: element j of the result is
  /// `Generate(requests[j].count, rng_j)` with a fresh
  /// `Rng rng_j(requests[j].seed)`, so it does not depend on how requests are
  /// grouped. Every method samples through this per-request loop; it stays
  /// virtual so a wrapping method (a timing decorator, say) can intercept it,
  /// and an override must return the same bytes.
  virtual std::vector<std::vector<Matrix>> GenerateBatch(
      const std::vector<GenRequest>& requests) const;

  /// Captures the fitted state for the artifact store. Default: not supported
  /// (kFailedPrecondition) — the harness then simply skips caching.
  virtual StatusOr<MethodSnapshot> Snapshot() const;

  /// Rebuilds the fitted state from a snapshot, replacing any current fit.
  /// After an OK Restore, Generate is bit-identical to the snapshotted
  /// instance. Default: not supported (kFailedPrecondition).
  virtual Status Restore(const MethodSnapshot& snapshot);

  /// Stable digest of the method's architecture and training hyperparameters.
  /// Part of the artifact-store key: changing a method's constants must change
  /// its digest, or stale cached models would shadow the new code.
  virtual uint64_t HyperparameterDigest() const;

  /// Stable display name ("TimeGAN", "TimeVAE", ...).
  virtual std::string name() const = 0;
};

/// Clamps generated values into the data range [0, 1]; every method applies this as
/// its final generation step since the preprocessed data lives in that range.
void ClampToUnit(Matrix& sample);

}  // namespace tsg::core

#endif  // TSG_CORE_METHOD_H_
