#include "methods/common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>

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

int64_t TotalCount(const std::vector<core::GenRequest>& requests) {
  int64_t total = 0;
  for (const core::GenRequest& r : requests) total += r.count;
  return total;
}

std::vector<Rng> RequestRngs(const std::vector<core::GenRequest>& requests) {
  std::vector<Rng> rngs;
  rngs.reserve(requests.size());
  for (const core::GenRequest& r : requests) rngs.emplace_back(r.seed);
  return rngs;
}

Var PackedRandn(const std::vector<core::GenRequest>& requests, int64_t dim,
                std::vector<Rng>& rngs, double stddev) {
  Matrix m(TotalCount(requests), dim);
  int64_t row = 0;
  for (size_t j = 0; j < requests.size(); ++j) {
    // Row-major matrix, so block j is the contiguous run the sequential path
    // would fill — the same FillNormal call on the same stream.
    rngs[j].FillNormal(m.data() + row * dim, requests[j].count * dim);
    row += requests[j].count;
  }
  if (stddev != 1.0) m *= stddev;
  return Var::Constant(std::move(m));
}

std::vector<Var> PackedNoiseSequence(int64_t steps,
                                     const std::vector<core::GenRequest>& requests,
                                     int64_t dim, std::vector<Rng>& rngs) {
  std::vector<Var> out;
  out.reserve(static_cast<size_t>(steps));
  for (int64_t t = 0; t < steps; ++t) {
    out.push_back(PackedRandn(requests, dim, rngs));
  }
  return out;
}

std::vector<std::vector<Matrix>> SplitByRequest(
    std::vector<Matrix> samples, const std::vector<core::GenRequest>& requests) {
  std::vector<std::vector<Matrix>> out;
  out.reserve(requests.size());
  size_t pos = 0;
  for (const core::GenRequest& r : requests) {
    std::vector<Matrix> block;
    block.reserve(static_cast<size_t>(r.count));
    for (int64_t i = 0; i < r.count; ++i) {
      block.push_back(std::move(samples[pos++]));
    }
    out.push_back(std::move(block));
  }
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
