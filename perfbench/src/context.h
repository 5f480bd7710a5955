#ifndef PERFBENCH_CONTEXT_H_
#define PERFBENCH_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "daemon.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

/// One workload. Every workload runs all three sections; they differ only in
/// how many jobs the daemon has served before the timed phase.
struct Workload {
  std::string name;
  /// Warm `generate` jobs served on the daemon after set-up, so the timed
  /// phase meets the job records the daemon keeps (0: a fresh daemon).
  int64_t aged_jobs = 0;
};

/// The workloads BENCHMARK.json lists; nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// The paper methods served by serve_mixed (trained on Stock at set-up) and
/// streamed by stream_live (trained on StockLong at set-up).
const std::vector<std::string>& ServedStockMethods();
const std::vector<std::string>& StreamedLongMethods();

struct Context {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 10.0;
  std::string run_dir;  ///< Fresh per run; removed at exit.
  /// Scale 1 and the run's seed: BenchConfig.seed is the --seed argument.
  tsg::bench::BenchConfig config;
  Report* report = nullptr;
  SpanLog* spans = nullptr;  ///< Non-null in the traced run.
  /// Highest VmHWM seen over the untraced timed phases; each phase resets the
  /// mark when it starts and reads it before the benchmark's own checks run.
  double peak_rss_mb = 0.0;

  void StartTimedPhase() const { ResetPeakRss(); }
  void EndTimedPhase() { peak_rss_mb = std::max(peak_rss_mb, PeakRssMb()); }
};

/// The daemon trained and warmed at set-up, shared by serve_mixed and
/// stream_live.
struct ServingSetup {
  std::string store_dir;
  std::unique_ptr<Daemon> daemon;
};

/// One set-up: an empty store, a daemon that trains every served and streamed
/// model through `fit` jobs, and warm-up that touches every model and the
/// Stock embedder. With `train` false `store_dir` must already hold the models
/// (a fresh daemon for the traced passes), and the fits are checked to be
/// store hits. With a span log the daemon records a span around every job.
tsg::StatusOr<ServingSetup> SetUpServing(const Context& ctx, const std::string& dir,
                                         const std::string& store_dir, bool train,
                                         SpanLog* spans = nullptr);

/// The in-process reference served results are checked against: models
/// restored from the store outside the daemon, with the dataset and harness
/// options the daemon uses.
struct LocalModels {
  tsg::core::Preprocessed pre;
  tsg::core::HarnessOptions options;
  std::map<std::string, tsg::core::ModelKey> keys;
  std::map<std::string, std::unique_ptr<tsg::core::TsgMethod>> methods;
};

/// The store key the harness and the daemon address `method`'s artifact by
/// when it is trained on `pre` under `options` (core::Harness::RunMethod).
tsg::core::ModelKey ModelKeyFor(const tsg::core::TsgMethod& method,
                                const tsg::core::Preprocessed& pre,
                                const tsg::core::HarnessOptions& options);

tsg::StatusOr<std::unique_ptr<LocalModels>> LoadLocalModels(
    const Context& ctx, const std::string& store_dir, tsg::data::DatasetId dataset,
    const std::vector<std::string>& names);

/// Runs fn(0) ... fn(n - 1) on four threads, each kept off the shared pool
/// (the output checks recompute served results with it).
void ForEachInParallel(size_t n, const std::function<void(size_t)>& fn);

/// Serves `ctx.workload->aged_jobs` warm `generate` jobs on `daemon` (three
/// tenants, closed loop, seeds drawn from (run seed, `salt`)) and checks every
/// digest against `stock`. Returns the wall time it took.
double AgeDaemon(Context& ctx, Daemon& daemon, const LocalModels& stock, uint64_t salt);

/// "method/dataset" -> measure -> (mean, stddev), as a grid summary holds them.
using CellScores =
    std::map<std::string, std::map<std::string, std::pair<double, double>>>;

// The timed part of a run is four rounds. serve_mixed runs a quarter of its
// window in every round; grid_cold runs a half in rounds 0 and 2, stream_live
// a half in rounds 1 and 3. A section's samples so span the whole run instead
// of one window of it: the host's speed drifts over seconds, and a section
// timed in a single window inherits that window's speed.

/// grid_cold so far: wall time, cells and the untraced cells' scores.
struct GridPass {
  double seconds = 0.0;
  int64_t cells = 0;
  int64_t failed = 0;
  CellScores scores;
};
/// Half 0: the ten methods on Stock; half 1: the four on StockLong.
void RunGridHalf(Context& ctx, int half, GridPass* grid);
/// Reports grid_s; in the traced run, repeats the grid traced and reports its
/// layers.
void FinishGrid(Context& ctx, const GridPass& grid);

/// serve_mixed so far, pooled over slices.
struct ServeTotals {
  std::vector<double> gen_ms, fit_ms, eval_ms;  ///< Latency from scheduled send.
  std::vector<double> lateness_ms;              ///< Of every request.
  int64_t requests = 0;
  int64_t backlog = 0;        ///< Unanswered when the last slice stopped sending.
  int64_t jobs_retained = 0;  ///< `status` job records after the last slice.
};
/// Quarter `slice` (0-3) of the serve window: seconds / 4 of open-loop
/// traffic on `daemon`. `grid` must hold the Stock cells the evaluate replies
/// are checked against.
void RunServeSlice(Context& ctx, Daemon& daemon, const LocalModels& stock,
                   const CellScores& grid, int slice, ServeTotals* serve);
/// Reports the serve_mixed metrics; in the traced run, a traced pass on
/// `traced` (a fresh daemon on the same store, aged as the untraced one was)
/// and the layers.
void FinishServe(Context& ctx, ServingSetup* traced, const LocalModels& stock,
                 const CellScores& grid, const ServeTotals& serve);

/// stream_live so far, pooled over halves.
struct StreamTotals {
  int64_t series = 0;
  double seconds = 0.0;  ///< From first submit to last result, summed.
  std::vector<double> poll_ms;
  int64_t polls_failed = 0;
  int64_t jobs = 0;
  int64_t jobs_failed = 0;        ///< No reply, not exact, or wrong series count.
  tsg::serve::JobSpec first_job;  ///< Replayed by the traced run's direct calls.
  /// Jobs that returned exact, with their replies: their scores are checked
  /// against in-process evaluators once the timed phases are over.
  std::vector<tsg::serve::JobSpec> done_jobs;
  std::vector<tsg::io::JsonValue> done_replies;
};
/// One stream_eval job per tenant on `daemon`, with metrics polls.
void RunStreamHalf(Context& ctx, Daemon& daemon, int half, StreamTotals* stream);
/// Checks every stream result against `long_models` and reports the
/// stream_live metrics; in the traced run, a traced pass on `traced` (after
/// the traced serve pass, as in the untraced rounds) and the layers.
void FinishStream(Context& ctx, ServingSetup* traced, const LocalModels& long_models,
                  const StreamTotals& stream);

}  // namespace perfbench

#endif  // PERFBENCH_CONTEXT_H_
