#include "nn/train.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "ag/tape.h"
#include "base/stopwatch.h"
#include "obs/metrics.h"

namespace tsg::nn {

using ag::Var;

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

Status GuardedStep(std::initializer_list<Optimizer*> opts, const Var& loss,
                   double clip_norm, const StepContext& ctx) {
  const StepMetrics& m = CachedStepMetrics(ctx);
  const Stopwatch watch;
  const double value = loss.value()(0, 0);
  if (!std::isfinite(value)) {
    m.nonfinite_loss->Add();
    return NonFinite(ctx, "loss", value);
  }
  for (Optimizer* opt : opts) opt->ZeroGrad();
  ag::Backward(loss);
  const double max_norm =
      clip_norm > 0 ? clip_norm : std::numeric_limits<double>::infinity();
  double worst_norm = 0.0;
  for (Optimizer* opt : opts) {
    const double norm = opt->ClipGradNorm(max_norm);
    if (!std::isfinite(norm)) {
      m.nonfinite_grad->Add();
      return NonFinite(ctx, "gradient norm", norm);
    }
    worst_norm = std::max(worst_norm, norm);
  }
  for (Optimizer* opt : opts) opt->Step();
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

Status GuardedStep(Optimizer& opt, const Var& loss, double clip_norm,
                   const StepContext& ctx) {
  return GuardedStep({&opt}, loss, clip_norm, ctx);
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

}  // namespace tsg::nn
