#include "methods/common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "base/fnv.h"

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

void PutConfig(core::MethodSnapshot* snap, const std::string& key, int64_t value) {
  snap->config.emplace_back(key, std::to_string(value));
}

Status GetConfig(const core::MethodSnapshot& snap, const char* method,
                 const std::string& key, int64_t* out) {
  for (const auto& [k, v] : snap.config) {
    if (k != key) continue;
    char* end = nullptr;
    const long long parsed = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0') {
      return Status::InvalidArgument(std::string(method) + ": bad config value '" +
                                     v + "' for " + key);
    }
    *out = static_cast<int64_t>(parsed);
    return Status::Ok();
  }
  return Status::InvalidArgument(std::string(method) + ": missing config key " +
                                 key);
}

void AppendParams(core::MethodSnapshot* snap, const std::vector<Var>& params) {
  for (const Var& p : params) snap->params.push_back(p.value());
}

Status AssignParams(const core::MethodSnapshot& snap, const char* method,
                    size_t start, const std::vector<Var>& params) {
  if (start + params.size() > snap.params.size()) {
    return Status::InvalidArgument(
        std::string(method) + ": snapshot has " +
        std::to_string(snap.params.size()) + " tensors, need " +
        std::to_string(start + params.size()));
  }
  for (size_t k = 0; k < params.size(); ++k) {
    const Matrix& have = snap.params[start + k];
    const Matrix& want = params[k].value();
    if (have.rows() != want.rows() || have.cols() != want.cols()) {
      return Status::InvalidArgument(
          std::string(method) + ": tensor " + std::to_string(start + k) +
          " shape mismatch: snapshot " + std::to_string(have.rows()) + "x" +
          std::to_string(have.cols()) + ", model " +
          std::to_string(want.rows()) + "x" + std::to_string(want.cols()));
    }
  }
  for (size_t k = 0; k < params.size(); ++k) {
    // Var is a shared handle; a copy writes through to the same node.
    Var p = params[k];
    p.mutable_value() = snap.params[start + k];
  }
  return Status::Ok();
}

Status CheckParamCount(const core::MethodSnapshot& snap, const char* method,
                       size_t expected) {
  if (snap.params.size() != expected) {
    return Status::InvalidArgument(std::string(method) + ": snapshot has " +
                                   std::to_string(snap.params.size()) +
                                   " tensors, expected " +
                                   std::to_string(expected));
  }
  return Status::Ok();
}

uint64_t HyperDigest(std::string_view spec) {
  return base::Fnv64().String(spec).digest();
}

int ResolveEpochs(int base_epochs, const FitOptions& options) {
  return std::max(1, static_cast<int>(std::lround(static_cast<double>(base_epochs) *
                                                  options.epoch_scale)));
}

}  // namespace tsg::methods
