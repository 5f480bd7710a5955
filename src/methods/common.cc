#include "methods/common.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "base/fnv.h"
#include "base/parse.h"

namespace tsg::methods {

std::vector<Matrix> StepsToSamples(const std::vector<Var>& steps) {
  TSG_CHECK(!steps.empty());
  const int64_t l = static_cast<int64_t>(steps.size());
  const int64_t batch = steps[0].rows();
  const int64_t n = steps[0].cols();
  std::vector<Matrix> samples(static_cast<size_t>(batch), Matrix(l, n));
  for (int64_t t = 0; t < l; ++t) {
    const Matrix& step = steps[static_cast<size_t>(t)].value();
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t j = 0; j < n; ++j) samples[static_cast<size_t>(b)](t, j) =
          step(b, j);
    }
  }
  for (Matrix& s : samples) core::ClampToUnit(s);
  return samples;
}

std::vector<Var> NoiseSequence(int64_t steps, int64_t batch, int64_t dim, Rng& rng) {
  std::vector<Var> out;
  out.reserve(static_cast<size_t>(steps));
  for (int64_t t = 0; t < steps; ++t) out.push_back(ag::Randn(batch, dim, rng));
  return out;
}

StatusOr<core::MethodSnapshot> PaperMethod::Snapshot() const {
  if (!built_) {
    return Status::FailedPrecondition(name() + ": Fit must succeed before Snapshot");
  }
  core::MethodSnapshot snap;
  for (const auto& [key, value] : dims_) {
    snap.config.emplace_back(key, std::to_string(value));
  }
  for (const Matrix* tensor : State()) snap.params.push_back(*tensor);
  return snap;
}

Status PaperMethod::Restore(const core::MethodSnapshot& snapshot) {
  built_ = false;
  Dims dims;
  for (const auto& [key, text] : snapshot.config) {
    int64_t value = 0;
    if (!base::ParseNumber(text, &value)) {
      return Status::InvalidArgument(name() + ": bad config value '" + text +
                                     "' for " + key);
    }
    dims.emplace_back(key, value);
  }
  // Placeholder init: every tensor of State() is overwritten below.
  Rng placeholder(0);
  TSG_RETURN_IF_ERROR(Build(dims, placeholder));
  const std::vector<Matrix*> state = State();
  if (snapshot.params.size() != state.size()) {
    return Status::InvalidArgument(name() + ": snapshot has " +
                                   std::to_string(snapshot.params.size()) +
                                   " tensors, expected " +
                                   std::to_string(state.size()));
  }
  for (size_t k = 0; k < state.size(); ++k) {
    const Matrix& have = snapshot.params[k];
    if (!have.SameShape(*state[k])) {
      return Status::InvalidArgument(
          name() + ": tensor " + std::to_string(k) + " shape mismatch: snapshot " +
          std::to_string(have.rows()) + "x" + std::to_string(have.cols()) +
          ", model " + std::to_string(state[k]->rows()) + "x" +
          std::to_string(state[k]->cols()));
    }
  }
  for (size_t k = 0; k < state.size(); ++k) *state[k] = snapshot.params[k];
  dims_ = std::move(dims);
  built_ = true;
  return Status::Ok();
}

Status PaperMethod::BuildFrom(Dims dims, Rng& rng) {
  built_ = false;
  TSG_RETURN_IF_ERROR(Build(dims, rng));
  dims_ = std::move(dims);
  built_ = true;
  return Status::Ok();
}

Status PaperMethod::ReadDims(const Dims& dims, DimFields fields) const {
  for (const auto& [field, out] : fields) {
    const auto it = std::find_if(dims.begin(), dims.end(),
                                 [&](const auto& dim) { return dim.first == field; });
    if (it == dims.end()) {
      return Status::InvalidArgument(name() + ": missing config key " + field);
    }
    if (it->second < 1) {
      return Status::InvalidArgument(name() + ": non-positive " + field + " " +
                                     std::to_string(it->second));
    }
    *out = it->second;
  }
  return Status::Ok();
}

std::vector<Matrix*> ValuesOf(const std::vector<Var>& params) {
  std::vector<Matrix*> values;
  values.reserve(params.size());
  // Var is a shared handle; a copy's mutable_value() is the parameter's own.
  for (Var p : params) values.push_back(&p.mutable_value());
  return values;
}

uint64_t HyperDigest(std::string_view spec) {
  return base::Fnv64().String(spec).digest();
}

int ResolveEpochs(int base_epochs, const FitOptions& options) {
  return std::max(1, static_cast<int>(std::lround(static_cast<double>(base_epochs) *
                                                  options.epoch_scale)));
}

}  // namespace tsg::methods
