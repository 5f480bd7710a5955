#include "core/method.h"

#include <algorithm>

#include "base/fnv.h"

namespace tsg::core {

ModelKey ModelKey::For(const TsgMethod& method, const Dataset& train,
                       const FitOptions& fit) {
  ModelKey key;
  key.method = method.name();
  key.hyper_digest = method.HyperparameterDigest();
  key.dataset_fingerprint = train.Fingerprint();
  key.seed = fit.seed;
  key.epoch_scale = fit.epoch_scale;
  key.batch_size = fit.batch_size;
  return key;
}

std::vector<std::vector<Matrix>> TsgMethod::GenerateBatch(
    const std::vector<GenRequest>& requests) const {
  std::vector<std::vector<Matrix>> out;
  out.reserve(requests.size());
  for (const GenRequest& request : requests) {
    Rng rng(request.seed);
    out.push_back(Generate(request.count, rng));
  }
  return out;
}

StatusOr<MethodSnapshot> TsgMethod::Snapshot() const {
  return Status::FailedPrecondition(name() + ": snapshot not supported");
}

Status TsgMethod::Restore(const MethodSnapshot& snapshot) {
  (void)snapshot;
  return Status::FailedPrecondition(name() + ": restore not supported");
}

uint64_t TsgMethod::HyperparameterDigest() const {
  return base::Fnv64().String(name()).digest();
}

void ClampToUnit(Matrix& sample) {
  for (int64_t i = 0; i < sample.size(); ++i) {
    sample[i] = std::clamp(sample[i], 0.0, 1.0);
  }
}

}  // namespace tsg::core
