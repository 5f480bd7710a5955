#ifndef TSG_SERVE_BENCH_RUNNER_H_
#define TSG_SERVE_BENCH_RUNNER_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "base/status.h"
#include "bench_util.h"
#include "core/harness.h"
#include "core/preprocess.h"
#include "serve/protocol.h"
#include "store/artifact_store.h"
#include "store/serving_cache.h"

namespace tsg::serve {

/// Executes one job to completion. Implementations must be safe to call from
/// several pool workers at once (the daemon runs up to max_inflight jobs
/// concurrently) and should poll `should_stop` between expensive stages —
/// returning a non-OK status once it fires — so cancel and drain resolve at
/// the next durable boundary instead of after hours.
class JobRunner {
 public:
  virtual ~JobRunner() = default;

  /// Runs `spec`; on success returns the comma-led raw JSON member fragment of
  /// the job's result (appended to `{"ok":true` by the server).
  virtual StatusOr<std::string> Run(const JobSpec& spec,
                                    const std::function<bool()>& should_stop) = 0;
};

/// The production runner: executes jobs against the same substrate as the batch
/// binaries, which is what makes daemon answers byte-identical to them.
///
///   fit      — an artifact that restores is a hit (zero training): a
///              resident model answers after one stat of its artifact, and a
///              published one is restored into the serving cache, which keeps
///              it. A missing or unusable one goes through the harness's one
///              fit-or-restore path (core::Harness::FitOrRestore under
///              bench::GridHarnessOptions), which retrains and republishes it,
///              so the store self-heals as a grid's does. Result: model key
///              address, path, whether training ran and its fit_seconds.
///   generate — serve from the warm store::ServingCache model; result is the
///              series count and an FNV-64 digest of the sampled values, which
///              equals the digest of `Generate(count, Rng(gen_seed))` on the
///              restored model no matter which process serves it.
///   evaluate — one (method, dataset) cell through core::Harness::RunMethod
///              with the exact grid options. The result members are the cell's
///              checkpoint record (bench::WriteCellJson): method, dataset,
///              "status":"ok", scores and fit_seconds, so its scores are the
///              grid summary's bytes for that cell.
///   grid     — one bench::RunGridShard sweep over the daemon's BenchConfig:
///              cells checkpoint under grid_ckpt_*/, a killed daemon resumes
///              from them byte-identically, and `should_stop` stops between
///              cells for drain/cancel. Result: summary path + FNV-64 digest of
///              the summary file, rows (the finished cells' scores), failed
///              cells and cells computed.
///   stream_eval — attach a streameval::StreamEvaluator to the tenant's
///              generate stream: chunked ServingCache generation (chunk b uses
///              seed gen_seed + b) feeds windowed online measures whose live
///              values land in the "stream.<tenant>.*" gauges METRICS serves.
///              An idle pool worker may generate chunk b + 1 while chunk b is
///              scored (base::Lookahead); the evaluator sees the same chunks in
///              the same order either way. The job's generation, wait and
///              Update seconds land in stream.<tenant>.{generate_s,wait_s,
///              update_s}. `should_stop` drains at the next window boundary —
///              the job finishes the in-progress window so the last exported
///              snapshot is whole, then stops. Before reporting, the runner
///              re-checks the final window with VerifyExactAgainstBatch, so
///              every result carries a machine-checked exactness attestation.
///
/// Datasets are simulated + preprocessed once per dataset name and shared
/// across jobs (mutex-guarded cache); harness and stores are built once.
class BenchJobRunner : public JobRunner {
 public:
  /// `config` pins scale/seed/out_dir; `store_dir` (already non-empty — tsgd
  /// defaults it under out_dir) hosts trained-model artifacts.
  explicit BenchJobRunner(bench::BenchConfig config);

  StatusOr<std::string> Run(const JobSpec& spec,
                            const std::function<bool()>& should_stop) override;

  store::ServingCache& serving_cache() { return *cache_; }

 private:
  StatusOr<std::string> RunFit(const JobSpec& spec);
  StatusOr<std::string> RunGenerate(const JobSpec& spec);
  StatusOr<std::string> RunEvaluate(const JobSpec& spec);
  StatusOr<std::string> RunGridJob(const JobSpec& spec,
                                   const std::function<bool()>& should_stop);
  StatusOr<std::string> RunStreamEval(const JobSpec& spec,
                                      const std::function<bool()>& should_stop);

  /// Makes sure the store holds a usable model for `key` — the shared
  /// fit-if-missing path behind fit and stream_eval. While its artifact file
  /// exists, a model the serving cache holds counts as present, and one it
  /// can restore is restored there, so the job's generation reads the
  /// artifact no second time. Otherwise core::Harness::FitOrRestore trains and
  /// republishes it. A failed publish fails the job.
  StatusOr<core::FitOutcome> EnsureFitted(const std::string& method,
                                          const core::Preprocessed& pre,
                                          const core::ModelKey& key);

  /// The preprocessed dataset for `name`, simulated on first use.
  StatusOr<const core::Preprocessed*> GetDataset(const std::string& name);

  /// The store key for (method, dataset) under this runner's config: the
  /// core::ModelKey::For key core::Harness::RunMethod uses, so fit, generate,
  /// evaluate and grid cells all address the same artifact. `pre` is the
  /// dataset's GetDataset entry; the key is derived on first use and cached.
  StatusOr<core::ModelKey> KeyFor(const std::string& method,
                                  const std::string& dataset,
                                  const core::Preprocessed& pre);

  const bench::BenchConfig config_;
  std::unique_ptr<store::ArtifactStore> store_;
  std::unique_ptr<store::ServingCache> cache_;
  std::unique_ptr<core::Harness> harness_;
  std::mutex datasets_mu_;
  std::map<std::string, std::unique_ptr<core::Preprocessed>> datasets_;
  /// KeyFor's cache, by (method, dataset name).
  std::map<std::pair<std::string, std::string>, core::ModelKey> keys_;
};

}  // namespace tsg::serve

#endif  // TSG_SERVE_BENCH_RUNNER_H_
