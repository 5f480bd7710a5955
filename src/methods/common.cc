#include "methods/common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "ag/tape.h"
#include "base/fnv.h"
#include "base/stopwatch.h"
#include "obs/metrics.h"

namespace tsg::methods {

namespace {

Status NonFinite(const StepContext& ctx, const char* what, double value) {
  std::ostringstream os;
  os << ctx.method << ": non-finite " << what << " (" << value << ") in "
     << ctx.phase << " at epoch " << ctx.epoch;
  return Status::NumericalError(os.str());
}

/// Pointer-cached metric handles for one (method, phase) training loop under
/// the "train.<method>.<phase>" prefix. GuardedStep is the single choke point
/// for optimizer updates and runs once per training step, so its metric lookups
/// must not allocate: the std::string name build plus map lookup per Get* call
/// would be ~10 heap allocations per step. Handles stay valid until
/// MetricRegistry::Reset(), which bumps the registry generation; the cache
/// re-resolves when the generation moves.
struct StepMetrics {
  const char* method = nullptr;
  const char* phase = nullptr;
  obs::Counter* nonfinite_loss = nullptr;
  obs::Counter* nonfinite_grad = nullptr;
  obs::Counter* steps = nullptr;
  obs::Histogram* loss = nullptr;
  obs::Histogram* grad_norm = nullptr;
  obs::Histogram* step_seconds = nullptr;
  obs::Gauge* epoch = nullptr;
  obs::Gauge* arena_bytes_peak = nullptr;
  obs::Gauge* steady_state_allocs = nullptr;
  obs::Gauge* nodes_per_step = nullptr;
};

StepMetrics ResolveStepMetrics(const StepContext& ctx) {
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  const std::string prefix = std::string("train.") + ctx.method + "." + ctx.phase;
  StepMetrics m;
  m.method = ctx.method;
  m.phase = ctx.phase;
  m.nonfinite_loss = &metrics.GetCounter(prefix + ".nonfinite_loss");
  m.nonfinite_grad = &metrics.GetCounter(prefix + ".nonfinite_grad");
  m.steps = &metrics.GetCounter(prefix + ".steps");
  m.loss = &metrics.GetHistogram(prefix + ".loss");
  m.grad_norm = &metrics.GetHistogram(prefix + ".grad_norm");
  m.step_seconds = &metrics.GetTimer(prefix + ".step_seconds");
  m.epoch = &metrics.GetGauge(prefix + ".epoch");
  m.arena_bytes_peak = &metrics.GetGauge("ag.arena.bytes_peak");
  m.steady_state_allocs = &metrics.GetGauge("ag.allocs.steady_state");
  m.nodes_per_step = &metrics.GetGauge("ag.nodes.per_step");
  return m;
}

/// Methods interleave a handful of (method, phase) pairs per thread (TimeGAN's
/// joint phase alternates three optimizers under one phase name; GANs alternate
/// G and D phases), so a short linear scan with pointer-equality fast path
/// covers the steady state without hashing or allocation.
const StepMetrics& CachedStepMetrics(const StepContext& ctx) {
  thread_local std::vector<StepMetrics> cache;
  thread_local uint64_t cache_generation = ~uint64_t{0};
  const uint64_t generation = obs::MetricRegistry::Global().generation();
  if (cache_generation != generation) {
    cache.clear();
    cache_generation = generation;
  }
  for (const StepMetrics& m : cache) {
    if ((m.method == ctx.method ||
         std::strcmp(m.method, ctx.method) == 0) &&
        (m.phase == ctx.phase || std::strcmp(m.phase, ctx.phase) == 0)) {
      return m;
    }
  }
  cache.push_back(ResolveStepMetrics(ctx));
  return cache.back();
}

/// Exports the step-arena telemetry for the tape this step ran under, if any.
/// The steady-state gauge reads the tape's post-warm-up chunk growths — the
/// zero-allocation contract's violation count. It is a gauge, not a counter:
/// arena chunks persist per thread across cells, so the value depends on
/// which thread ran which cell and must stay out of the snapshot's "counts".
void ExportTapeStats(const StepMetrics& m) {
  const ag::Tape* tape = ag::Tape::Active();
  if (tape == nullptr) return;
  m.arena_bytes_peak->Set(static_cast<double>(tape->arena_bytes_peak()));
  m.steady_state_allocs->Set(
      static_cast<double>(tape->steady_state_chunk_allocs()));
  m.nodes_per_step->Set(static_cast<double>(tape->nodes_since_reset()));
}

}  // namespace

Status GuardedStep(std::initializer_list<nn::Optimizer*> opts, const Var& loss,
                   double clip_norm, const StepContext& ctx) {
  const StepMetrics& m = CachedStepMetrics(ctx);
  const Stopwatch watch;
  const double value = loss.value()(0, 0);
  if (!std::isfinite(value)) {
    m.nonfinite_loss->Add();
    return NonFinite(ctx, "loss", value);
  }
  for (nn::Optimizer* opt : opts) opt->ZeroGrad();
  ag::Backward(loss);
  const double max_norm =
      clip_norm > 0 ? clip_norm : std::numeric_limits<double>::infinity();
  double worst_norm = 0.0;
  for (nn::Optimizer* opt : opts) {
    const double norm = opt->ClipGradNorm(max_norm);
    if (!std::isfinite(norm)) {
      m.nonfinite_grad->Add();
      return NonFinite(ctx, "gradient norm", norm);
    }
    worst_norm = std::max(worst_norm, norm);
  }
  for (nn::Optimizer* opt : opts) opt->Step();
  // Per-step telemetry: loss and pre-clip gradient norm are deterministic data
  // (snapshot "counts" section); the step time is wall clock ("timings"). The
  // epoch gauge tracks training progress for a live reader of the registry.
  m.steps->Add();
  m.loss->Record(value);
  m.grad_norm->Record(worst_norm);
  m.epoch->Set(static_cast<double>(ctx.epoch));
  m.step_seconds->Record(watch.ElapsedSeconds());
  ExportTapeStats(m);
  return Status::Ok();
}

Status GuardedStep(nn::Optimizer& opt, const Var& loss, double clip_norm,
                   const StepContext& ctx) {
  return GuardedStep({&opt}, loss, clip_norm, ctx);
}

Var StepBatch(const Dataset& ds, const std::vector<int64_t>& idx, int64_t t) {
  const int64_t batch = static_cast<int64_t>(idx.size());
  const int64_t n = ds.num_features();
  // Arena-backed inside a StepScope: batch assembly rides the tape, so the
  // per-step data marshalling is allocation-free too.
  Matrix out = ag::ScratchUninit(batch, n);
  for (int64_t b = 0; b < batch; ++b) {
    const Matrix& s = ds.sample(idx[static_cast<size_t>(b)]);
    for (int64_t j = 0; j < n; ++j) out(b, j) = s(t, j);
  }
  return Var::Constant(std::move(out));
}

std::vector<Var> SequenceBatch(const Dataset& ds, const std::vector<int64_t>& idx) {
  std::vector<Var> steps;
  steps.reserve(static_cast<size_t>(ds.seq_len()));
  for (int64_t t = 0; t < ds.seq_len(); ++t) steps.push_back(StepBatch(ds, idx, t));
  return steps;
}

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

MiniBatcher::MiniBatcher(int64_t count, int64_t batch_size, Rng& rng)
    : perm_(rng.Permutation(count)), batch_size_(batch_size) {}

bool MiniBatcher::Next(std::vector<int64_t>* idx) {
  if (pos_ >= static_cast<int64_t>(perm_.size())) return false;
  const int64_t end = std::min<int64_t>(pos_ + batch_size_,
                                        static_cast<int64_t>(perm_.size()));
  idx->assign(perm_.begin() + pos_, perm_.begin() + end);
  pos_ = end;
  return true;
}

}  // namespace tsg::methods
