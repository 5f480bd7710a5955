#include "core/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tsg::core {

Harness::Harness(HarnessOptions options)
    : options_(std::move(options)),
      suite_(DefaultMeasureSuite(options_.include_ps_entire)) {}

Harness::~Harness() = default;

StatusOr<const embed::SequenceEmbedder*> Harness::GetEmbedder(
    const std::string& key, const Dataset& reference) {
  if (reference.empty()) {
    return Status::InvalidArgument("embedder reference '" + key + "' is empty");
  }
  // One lock covers lookup and fit: concurrent grid cells that share a reference
  // dataset wait for the first fit instead of training duplicate embedders. The
  // fit itself is deterministic (fixed seed, fixed reference), so whichever cell
  // arrives first produces the same embedder.
  std::lock_guard<std::mutex> lock(embedders_mu_);
  auto it = embedders_.find(key);
  if (it == embedders_.end()) {
    auto embedder = std::make_unique<embed::SequenceEmbedder>(
        reference.num_features(), options_.embedder, options_.seed ^ 0xE3BEDDE2);
    const int64_t cap = std::min<int64_t>(reference.num_samples(), 512);
    // A failed fit is not cached: the next call for this key fits afresh.
    TSG_RETURN_IF_ERROR(embedder->Fit(reference.Head(cap).samples()).status());
    it = embedders_.emplace(key, std::move(embedder)).first;
  }
  return it->second.get();
}

StatusOr<std::vector<std::pair<std::string, stats::MeanStd>>>
Harness::EvaluateGenerated(const Dataset& real, const Dataset& real_test,
                           const Dataset& generated,
                           const std::string& embedder_key) {
  if (generated.empty()) {
    return Status::InvalidArgument("generated set is empty");
  }
  for (int64_t i = 0; i < generated.num_samples(); ++i) {
    if (!linalg::AllFinite(generated.sample(i))) {
      return Status::NumericalError("generated sample " + std::to_string(i) +
                                    " contains non-finite values");
    }
  }
  TSG_ASSIGN_OR_RETURN(const embed::SequenceEmbedder* embedder,
                       GetEmbedder(embedder_key, real));

  MeasureContext ctx;
  ctx.real = &real;
  ctx.real_test = &real_test;
  ctx.generated = &generated;
  ctx.embedder = embedder;

  // Measures are independent given the shared read-only context: each task gets its
  // own context copy (for the per-repeat seed) and results land in suite order.
  // Repeat seeds derive from the repeat index, never from the executing thread.
  // Per-measure failures are carried out of the parallel region and reported in
  // suite order, so the first error is deterministic for any thread count.
  struct MeasureOutcome {
    Status status;
    std::pair<std::string, stats::MeanStd> result;
  };
  const auto outcomes = base::ParallelMap<MeasureOutcome>(
      static_cast<int64_t>(suite_.size()), 1, [&](int64_t mi) {
        const Measure& measure = *suite_[static_cast<size_t>(mi)];
        const int repeats = measure.stochastic() ? options_.stochastic_repeats : 1;
        MeasureContext local = ctx;
        std::vector<double> values;
        values.reserve(static_cast<size_t>(repeats));
        for (int r = 0; r < repeats; ++r) {
          local.seed = options_.seed + 1000003ULL * static_cast<uint64_t>(r + 1);
          const StatusOr<double> v = measure.Evaluate(local);
          if (!v.ok()) {
            obs::MetricRegistry::Global()
                .GetCounter("measure." + measure.name() + ".failures")
                .Add();
            return MeasureOutcome{
                Status(v.status().code(),
                       measure.name() + ": " + v.status().message()),
                {}};
          }
          if (!std::isfinite(v.value())) {
            obs::MetricRegistry::Global()
                .GetCounter("measure." + measure.name() + ".nonfinite")
                .Add();
            return MeasureOutcome{
                Status::NumericalError(measure.name() +
                                       " produced a non-finite value"),
                {}};
          }
          values.push_back(v.value());
        }
        return MeasureOutcome{
            Status::Ok(),
            std::make_pair(measure.name(), stats::Summarize(values))};
      });

  std::vector<std::pair<std::string, stats::MeanStd>> out;
  out.reserve(outcomes.size());
  for (const MeasureOutcome& outcome : outcomes) {
    if (!outcome.status.ok()) return outcome.status;
    out.push_back(outcome.result);
  }
  return out;
}

StatusOr<MethodRunResult> Harness::RunMethod(TsgMethod& method,
                                             const Dataset& train,
                                             const Dataset& test) {
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  obs::ScopedTimer cell_span("harness.run_method");
  metrics.GetCounter("harness.cells.started").Add();
  MethodRunResult result;
  result.method = method.name();
  result.dataset = train.name();
  const std::string cell = result.method + " / " + result.dataset;

  // Cache consult: a stored snapshot for this exact (method code, data, training
  // schedule) identity replaces the Fit entirely. Restore failures of any kind
  // fall through to training — a corrupt or stale artifact is then overwritten
  // by the fresh fit's Save below, so the store self-heals.
  ModelKey key;
  bool restored = false;
  if (options_.store != nullptr) {
    key = ModelKey::For(method, train, options_.fit);
    StatusOr<MethodSnapshot> snapshot = options_.store->Load(key);
    if (snapshot.ok()) {
      const Status restore_status = method.Restore(snapshot.value());
      if (restore_status.ok()) {
        restored = true;
        metrics.GetCounter("harness.store.restored").Add();
      } else {
        metrics.GetCounter("harness.store.restore_failed").Add();
      }
    }
  }

  if (!restored) {
    Stopwatch watch;
    obs::ScopedTimer fit_span("fit");
    metrics.GetCounter("harness.fit_calls").Add();
    const Status fit_status = method.Fit(train, options_.fit);
    result.fit_seconds = watch.ElapsedSeconds();
    metrics.RecordTimer("harness.fit_seconds." + result.method,
                        result.fit_seconds);
    if (!fit_status.ok()) {
      metrics.GetCounter("harness.errors.fit").Add();
      return Status(fit_status.code(),
                    cell + ": fit failed: " + fit_status.message());
    }
    if (options_.store != nullptr) {
      // Publish the fresh fit. Methods without snapshot support report
      // kFailedPrecondition — that is "not cacheable", not an error.
      StatusOr<MethodSnapshot> snapshot = method.Snapshot();
      if (snapshot.ok()) {
        const Status save_status = options_.store->Save(key, snapshot.value());
        if (!save_status.ok()) {
          metrics.GetCounter("harness.store.save_failed").Add();
          std::fprintf(stderr, "[%s] store save failed: %s\n", cell.c_str(),
                       save_status.ToString().c_str());
        }
      } else if (snapshot.status().code() != StatusCode::kFailedPrecondition) {
        metrics.GetCounter("harness.store.snapshot_failed").Add();
      }
    }
  }

  const int64_t count = std::min(options_.max_eval_samples, train.num_samples());
  Dataset generated;
  {
    // Scoped so the span closes before evaluation: fit, generate and evaluate
    // are sibling spans under harness.run_method.
    Rng gen_rng(options_.seed ^ 0x6E4E12A7);
    Stopwatch generate_watch;
    obs::ScopedTimer generate_span("generate");
    generated = Dataset(result.method + "@" + result.dataset,
                        method.Generate(count, gen_rng));
    metrics.RecordTimer("harness.generate_seconds." + result.method,
                        generate_watch.ElapsedSeconds());
    if (generated.num_samples() != count ||
        generated.seq_len() != train.seq_len() ||
        generated.num_features() != train.num_features()) {
      metrics.GetCounter("harness.errors.generate_malformed").Add();
      return Status::Internal(cell + ": Generate returned a malformed sample set");
    }
  }
  const Dataset reference = train.Head(count);
  obs::ScopedTimer evaluate_span("evaluate");
  auto scores = EvaluateGenerated(reference, test, generated, result.dataset);
  if (!scores.ok()) {
    metrics.GetCounter("harness.errors.evaluate").Add();
    return Status(scores.status().code(), cell + ": " + scores.status().message());
  }
  result.scores = std::move(scores).value();
  metrics.GetCounter("harness.cells.ok").Add();
  return result;
}

const char* Harness::TrainingTimeBucket(double seconds) {
  if (seconds < 60.0) return "<1min";
  if (seconds < 3600.0) return "<1h";
  if (seconds < 86400.0) return "<1d";
  return ">=1d";
}

}  // namespace tsg::core
