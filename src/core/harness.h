#ifndef TSG_CORE_HARNESS_H_
#define TSG_CORE_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/measures.h"
#include "core/method.h"
#include "embed/embedder.h"
#include "stats/descriptive.h"

namespace tsg::core {

/// Orchestrates the paper's evaluation protocol for one (method, dataset) cell:
/// fit, time the fit (M8), generate one sample per reference sample, and run the
/// measure suite — repeating the stochastic TSTR measures (DS/PS) with fresh seeds
/// and reporting mean +- std as the paper does (it repeats 5x; benches default to 3).
struct HarnessOptions {
  FitOptions fit;
  int stochastic_repeats = 3;
  /// Caps both the reference set and the generated count per evaluation.
  int64_t max_eval_samples = 256;
  bool include_ps_entire = false;
  embed::SequenceEmbedder::Options embedder;
  uint64_t seed = 42;
  /// Optional trained-model artifact store (not owned; must outlive the
  /// harness). When set, RunMethod consults it before fitting: a valid cached
  /// snapshot restores the method instead of training it, and a fresh fit
  /// publishes its snapshot back. Because restored parameters round-trip
  /// bit-exactly and generation randomness is seeded independently of the fit,
  /// cache-served cells score byte-identically to freshly trained ones.
  ModelStore* store = nullptr;
};

/// One completed (method, dataset) cell: fit wall time (M8) plus the aggregated
/// measure scores in suite order.
struct MethodRunResult {
  std::string method;
  std::string dataset;
  double fit_seconds = 0.0;
  /// Measure name -> (mean, std across repeats; std 0 for deterministic measures).
  std::vector<std::pair<std::string, stats::MeanStd>> scores;
};

/// Runs the evaluation protocol. One instance owns the measure suite and an
/// embedder cache; all public methods are safe to call concurrently (the cache
/// is mutex-guarded, the suite is immutable after construction). Every failure
/// is reported as a recoverable Status so grid drivers can log the cell and
/// move on.
class Harness {
 public:
  explicit Harness(HarnessOptions options);
  ~Harness();

  /// Full protocol for one cell. `train` is the preprocessed 90% split, `test` the
  /// held-out 10% used by the TSTR measures. Returns a non-OK Status (annotated
  /// with method and dataset) when the fit diverges, the generated output is
  /// malformed or non-finite, or a measure fails — the caller records the cell as
  /// failed and continues, rather than aborting a whole grid. Safe to call
  /// concurrently on one harness, provided each call gets its own TsgMethod
  /// instance (Fit mutates the method).
  StatusOr<MethodRunResult> RunMethod(TsgMethod& method, const Dataset& train,
                                      const Dataset& test);

  /// Evaluates an externally produced generated set against a real reference — used
  /// by the Table 4 robustness test and the DA benches. `embedder_key` groups
  /// embedder reuse (one embedder per reference dataset). Independent measures run
  /// concurrently on the global thread pool (serially when called from inside an
  /// outer parallel region, e.g. a parallel bench grid); results are collected in
  /// suite order, so scores are bit-identical for any thread count. Safe to call
  /// from several threads at once.
  /// Fails (recoverably) on shape mismatches, empty or non-finite generated data,
  /// and on any measure error — annotated with the measure name.
  StatusOr<std::vector<std::pair<std::string, stats::MeanStd>>> EvaluateGenerated(
      const Dataset& real, const Dataset& real_test, const Dataset& generated,
      const std::string& embedder_key);

  /// Returns (fitting on first use) the context embedder for a reference dataset.
  /// Fails when the reference is empty or the embedder fit fails (diverges); a
  /// failed fit is not cached, so the next call for the key fits again.
  StatusOr<const embed::SequenceEmbedder*> GetEmbedder(const std::string& key,
                                                       const Dataset& reference);

  /// The options this harness was built with (immutable after construction).
  const HarnessOptions& options() const { return options_; }

  /// Buckets a training time into the paper's four Figure 5 segments:
  /// "<1min", "<1h", "<1d", ">=1d".
  static const char* TrainingTimeBucket(double seconds);

 private:
  HarnessOptions options_;
  /// Built once per harness; Measure::Evaluate is const and the suite is shared by
  /// every (possibly concurrent) EvaluateGenerated call.
  std::vector<std::unique_ptr<Measure>> suite_;
  std::mutex embedders_mu_;
  std::map<std::string, std::unique_ptr<embed::SequenceEmbedder>> embedders_;
};

}  // namespace tsg::core

#endif  // TSG_CORE_HARNESS_H_
