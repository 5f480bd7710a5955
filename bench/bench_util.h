#ifndef TSG_BENCH_BENCH_UTIL_H_
#define TSG_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "base/parse.h"
#include "base/status.h"
#include "core/harness.h"
#include "core/preprocess.h"
#include "data/simulators.h"
#include "io/json.h"

namespace tsg::bench {

/// Global knobs shared by every bench binary. Defaults give a laptop-scale run that
/// finishes in minutes; TSGBENCH_SCALE=<x> multiplies the budget (dataset size,
/// training epochs, evaluation repeats) toward paper fidelity.
struct BenchConfig {
  double scale = 1.0;          ///< TSGBENCH_SCALE multiplier.
  uint64_t seed = 42;          ///< TSGBENCH_SEED.
  std::string out_dir = "bench_out";  ///< TSGBENCH_OUT.
  /// TSGBENCH_STORE_DIR: trained-model artifact store directory. When set, grid
  /// cells consult the store before fitting (hit -> restore, zero training) and
  /// publish their fitted model after training, so a second run against the
  /// same store retrains nothing. Empty = store disabled.
  std::string store_dir;

  double dataset_scale() const { return 0.02 * scale; }
  double epoch_scale() const { return 0.2 * scale; }
  int stochastic_repeats() const { return scale >= 2.0 ? 5 : 2; }
  int64_t max_eval_samples() const { return scale >= 2.0 ? 256 : 96; }
};

/// Reads TSGBENCH_SCALE / TSGBENCH_SEED / TSGBENCH_OUT / TSGBENCH_STORE_DIR and
/// ensures out_dir exists. A TSGBENCH_SCALE or TSGBENCH_SEED that
/// base::ParseNumber rejects ("7x", "abc") exits 2 naming the variable; the
/// scale is clamped to at least 0.05.
BenchConfig LoadConfig();

/// Strips bench-harness flags from argv before any other argument parsing (call
/// first in main, before benchmark::Initialize for Google Benchmark binaries).
/// Currently recognizes --metrics_out=<path>, which arms WriteMetricsSnapshot().
void ParseBenchFlags(int* argc, char** argv);

/// Terminal flag-parsing step: call after every Consume* call has stripped the
/// flags the binary understands. Any `--name[=value]` argument still present is
/// unknown — the function prints "unknown flag" plus `usage` to stderr and
/// returns false so main can exit 2, instead of the old behavior of silently
/// ignoring a mistyped flag and running the full (possibly hours-long) job
/// with its default. Non-flag positional arguments are left alone.
bool RequireNoUnknownFlags(int argc, char** argv, const std::string& usage);

/// Removes a bare `--<name>` flag from argv; returns true when it was present.
bool ConsumeFlag(int* argc, char** argv, const std::string& name);

/// Removes a `--<name>=<value>` flag from argv and stores the value; returns
/// false (argv untouched, *value unchanged) when the flag is absent.
bool ConsumeFlagValue(int* argc, char** argv, const std::string& name,
                      std::string* value);

/// Removes a numeric `--<name>=<value>` flag from argv into `*value`; returns
/// false (argv and *value untouched) when the flag is absent. The value must
/// pass base::ParseNumber: an empty, partly numeric ("12x") or out-of-range
/// value prints the flag and exits 2, like any other usage error.
template <typename T>
bool ConsumeNumericFlag(int* argc, char** argv, const std::string& name, T* value) {
  std::string text;
  if (!ConsumeFlagValue(argc, argv, name, &text)) return false;
  if (!base::ParseNumber(text, value)) {
    std::fprintf(stderr, "invalid value for --%s: '%s'\n", name.c_str(),
                 text.c_str());
    std::exit(2);
  }
  return true;
}

/// Splits "a,b,c" into {"a","b","c"}; empty segments are dropped.
std::vector<std::string> SplitCsvList(const std::string& csv);

/// Writes the process-wide obs::MetricRegistry snapshot to the --metrics_out
/// path (atomic write). No-op without the flag. Bench mains call this last so
/// the snapshot covers the whole run.
void WriteMetricsSnapshot();

/// A (method, dataset) cell that failed recoverably — a diverged fit, non-finite
/// generated data, or a measure error. The grid records it and keeps going.
struct CellError {
  std::string method;
  std::string dataset;
  std::string error;  ///< Status string with method/phase/epoch context.
};

/// The outcome of a grid run: the finished cells (dataset-major sweep order),
/// each the harness's MethodRunResult named by its registry method name, plus
/// an error record per failed cell (same order), and how many cells the call
/// fitted and evaluated itself rather than loaded. The cells are what
/// core::RankingAnalysis ranks.
struct GridResult {
  std::vector<core::MethodRunResult> cells;
  std::vector<CellError> failures;
  int64_t computed = 0;
};

/// Preprocesses one simulated dataset under the benchmark defaults.
core::Preprocessed PrepareDataset(data::DatasetId id, const BenchConfig& config);

/// The harness configuration every grid execution mode derives from `config`
/// (options.store left null — callers attach their own). Exported so out-of-
/// process servers (the tsgd daemon) evaluate cells with exactly the options a
/// batch grid would, which is what makes their results byte-identical.
core::HarnessOptions GridHarnessOptions(const BenchConfig& config);

/// Directory holding one atomically written checkpoint file per completed
/// (method, dataset) cell, keyed by the config: the only store of grid cells.
/// A checkpoint is the cell's grid-summary object plus its "fit_seconds". A
/// killed or finished grid run resumes from these: completed cells are loaded
/// instead of recomputed, and because every cell seeds its Rng chain from the
/// config alone, the resumed run's outputs are byte-identical to an
/// uninterrupted run.
std::string CheckpointDir(const BenchConfig& config);

/// `CheckpointDir(config)/<method>__<dataset>.json`, each name with characters
/// outside [A-Za-z0-9._-] replaced by '_'. The cell's lease adds ".lease".
std::string CheckpointPath(const BenchConfig& config, const std::string& method,
                           const std::string& dataset);

/// Writes a finished cell as the object the grid summary lists,
/// {"method","dataset","status":"ok","scores":{<measure>:{"mean","stddev"}}},
/// plus a trailing "fit_seconds" for a checkpoint or the daemon's evaluate
/// answer. Doubles print with %.17g, which round-trips them bit for bit.
void WriteCellJson(const core::MethodRunResult& result, bool with_fit_seconds,
                   io::JsonWriter* json);

/// Path of the deterministic JSON summary artifact written after every grid run:
/// per-cell status, scores for completed cells, and error records for failed
/// ones. Wall-clock timings are deliberately excluded (they live in the per-cell
/// checkpoints) so the file is byte-identical across reruns and kill/resume
/// cycles.
std::string GridSummaryPath(const BenchConfig& config);

/// How a grid sweep shares its checkpoint directory with other processes
/// (DESIGN.md §10). Processes coordinate only through files in
/// CheckpointDir(config): a cell without a valid checkpoint is claimed by
/// atomically creating `<checkpoint>.lease` (io::AcquireLease), computed,
/// checkpointed atomically, and released. A process that dies mid-cell leaves
/// a lease that any other sweep detects as dead (same-host pid probe, or the
/// `lease_stale_seconds` TTL) and reclaims via BreakDeadCellLease. Because
/// every cell is a pure function of the config, it does not matter which
/// process computes a cell: the checkpoint bytes are identical either way.
struct ShardOptions {
  std::string worker_label = "grid";  ///< Log prefix only.
  /// A held lease at least this old is reclaimable even when its owner cannot
  /// be probed (foreign host). Same-host dead owners are reclaimed immediately.
  double lease_stale_seconds = 300.0;
  /// Give up after this long with cells left but no progress anywhere (a
  /// hung live owner would otherwise block the sweep forever).
  double max_wait_seconds = 600.0;
  /// Cooperative stop hook for long-running hosts (the tsgd daemon's drain and
  /// cancel paths). Polled between cells, never mid-cell: when it returns true
  /// the sweep stops claiming cells and returns FailedPrecondition. Cells
  /// already checkpointed stay durable, so a later run of the same config
  /// resumes from them byte-identically. Null = never stop.
  std::function<bool()> should_stop;
};

/// Runs the benchmarking grid (methods x datasets x measure suite) and returns
/// its finished cells plus failures: RunGridShard with the default ShardOptions,
/// except that it aborts on a sweep error — a lease I/O failure, a failed
/// checkpoint write, or max_wait_seconds spent waiting on a cell another live
/// process holds. Every cell with a checkpoint under CheckpointDir() is
/// replayed from it; the rest are claimed, fitted and evaluated as independent
/// tasks on the global thread pool (TSG_THREADS-many at once) and checkpointed
/// as they finish. Cells come back in the serial dataset-major order, and every
/// cell seeds its own Rng chain from the config, so they are bit-identical to a
/// single-threaded run. A failing cell (diverged fit, NaN loss, measure error)
/// becomes a CellError while the rest of the grid completes. The JSON summary
/// at GridSummaryPath() is (re)written atomically at the end. A rerun over a
/// finished grid computes nothing, which is how the Figure 1/5/8 binaries share
/// one grid, and processes pointed at one output directory split the grid.
GridResult RunGrid(const BenchConfig& config,
                   const std::vector<std::string>& methods,
                   const std::vector<data::DatasetId>& datasets);

/// The grid sweep with the caller's ShardOptions: one sharded-grid worker
/// process (bench_grid_worker, the daemon's grid job). Returns once every cell
/// has a valid checkpoint, with the cells, failures and the number of cells this
/// call computed, after writing the summary like every sweep.
/// FailedPrecondition when should_stop fires or on a no-progress timeout;
/// IoError on a lease failure or the first failed checkpoint write.
StatusOr<GridResult> RunGridShard(const BenchConfig& config,
                                  const std::vector<std::string>& methods,
                                  const std::vector<data::DatasetId>& datasets,
                                  const ShardOptions& options);

/// The reclaim step of the sweep's claim: when the cell's lease is dead
/// (io::ProbeLease with `stale_seconds`), breaks that lease — the owner token
/// the probe read — with this process's token and returns true; false when the
/// lease is free, live, broken first by another worker, or replaced by a new
/// claim since the probe. The break is counted as grid.shard.leases.stolen
/// and, when the cell has no checkpoint, as grid.cells.reclaimed. Counting at
/// the break counts each dead cell exactly once — rename(2) lets one breaker
/// win — even when another worker's plain AcquireLease then takes the freed
/// lease before the breaker re-acquires it.
StatusOr<bool> BreakDeadCellLease(const BenchConfig& config,
                                  const std::string& method,
                                  const std::string& dataset,
                                  double stale_seconds);

struct MergeOptions {
  /// When true, the supervisor computes any cell no worker completed (after
  /// reclaiming its lease). When false a missing checkpoint is an error — the
  /// strict mode CI uses to prove the workers really covered the grid.
  bool compute_missing = true;
  double lease_stale_seconds = 300.0;  ///< Same reclaim TTL as ShardOptions.
};

/// Supervisor pass, run after the workers exit. Workers already write the
/// summary, so the merge is needed only as the strict coverage check or to
/// finish cells no worker finished. A lease pass refuses a cell a live worker
/// still holds and removes a lease left beside a finished checkpoint (owner
/// died between checkpoint and release); then the grid sweep loads every cell,
/// reclaims and computes the missing ones when allowed, and writes the
/// summary, byte-identical to a single-process RunGrid of the same config —
/// checkpoints round-trip doubles through %.17g. Fails with NotFound (strict
/// mode, missing cell), FailedPrecondition (a live worker still holds a lease)
/// or the first failed checkpoint write.
StatusOr<GridResult> MergeGridShards(const BenchConfig& config,
                                     const std::vector<std::string>& methods,
                                     const std::vector<data::DatasetId>& datasets,
                                     const MergeOptions& options);

/// The dataset whose data::DatasetName is `name`; InvalidArgument otherwise.
StatusOr<data::DatasetId> ParseDatasetName(const std::string& name);

/// Parses a comma-separated dataset-name list ("dlg,stock") with
/// ParseDatasetName. An empty string means data::AllDatasets().
StatusOr<std::vector<data::DatasetId>> ParseDatasetList(const std::string& csv);

/// Parses a comma-separated method list against methods::AllMethodNames().
/// An empty string means every registered paper method.
StatusOr<std::vector<std::string>> ParseMethodList(const std::string& csv);

/// Prints any failed cells to stderr; returns the number of failures. Bench mains
/// call this so partial grids are visible without aborting the figure: Figure 5
/// prints "-" for a failed cell, and Figures 1 and 8 rank only the datasets
/// every method finished (core::RankingAnalysis::RenderDropped()).
size_t ReportFailures(const GridResult& grid);

}  // namespace tsg::bench

#endif  // TSG_BENCH_BENCH_UTIL_H_
