#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "io/atomic_file.h"
#include "io/csv.h"
#include "io/json.h"
#include "io/lease.h"
#include "methods/factory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/artifact_store.h"

namespace tsg::bench {

namespace {

std::string g_metrics_out;

/// Reads numeric environment variable `name` into `*value` when it is set; a
/// value base::ParseNumber rejects exits 2 naming the variable, like a
/// malformed numeric flag.
template <typename T>
void ReadNumericEnv(const char* name, T* value) {
  const char* text = std::getenv(name);
  if (text != nullptr && !base::ParseNumber(text, value)) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", name, text);
    std::exit(2);
  }
}

}  // namespace

void ParseBenchFlags(int* argc, char** argv) {
  ConsumeFlagValue(argc, argv, "metrics_out", &g_metrics_out);
}

bool ConsumeFlag(int* argc, char** argv, const std::string& name) {
  const std::string flag = "--" + name;
  bool found = false;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    if (flag == argv[i]) {
      found = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;
  return found;
}

bool RequireNoUnknownFlags(int argc, char** argv, const std::string& usage) {
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      ok = false;
    }
  }
  if (!ok) std::fprintf(stderr, "usage: %s\n", usage.c_str());
  return ok;
}

bool ConsumeFlagValue(int* argc, char** argv, const std::string& name,
                      std::string* value) {
  const std::string prefix = "--" + name + "=";
  bool found = false;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      *value = argv[i] + prefix.size();
      found = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;
  return found;
}

std::vector<std::string> SplitCsvList(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(csv);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void WriteMetricsSnapshot() {
  if (g_metrics_out.empty()) return;
  const Status s = obs::MetricRegistry::Global().WriteSnapshot(g_metrics_out);
  if (!s.ok()) {
    std::fprintf(stderr, "metrics snapshot write failed: %s\n",
                 s.ToString().c_str());
  } else {
    std::fprintf(stderr, "[obs] metrics snapshot written to %s\n",
                 g_metrics_out.c_str());
  }
}

BenchConfig LoadConfig() {
  BenchConfig config;
  ReadNumericEnv("TSGBENCH_SCALE", &config.scale);
  config.scale = std::max(0.05, config.scale);
  ReadNumericEnv("TSGBENCH_SEED", &config.seed);
  if (const char* out = std::getenv("TSGBENCH_OUT")) {
    config.out_dir = out;
  }
  if (const char* store_dir = std::getenv("TSGBENCH_STORE_DIR")) {
    config.store_dir = store_dir;
  }
  std::filesystem::create_directories(config.out_dir);
  return config;
}

core::Preprocessed PrepareDataset(data::DatasetId id, const BenchConfig& config) {
  data::SimulatorOptions sim;
  const data::PaperStats paper = data::GetPaperStats(id);
  // Long-sequence datasets cost ~l per training step; cap their window count so the
  // default grid finishes in minutes while the R ordering across datasets survives.
  const double window_cap = (paper.l >= 100 ? 176.0 : 352.0) * config.scale;
  sim.scale = std::min(config.dataset_scale(),
                       window_cap / static_cast<double>(paper.r));
  sim.seed = config.seed;
  const data::RawSeries raw = data::Simulate(id, sim);
  core::PreprocessOptions pre;
  pre.shuffle_seed = config.seed ^ 0x5481;
  return core::Preprocess(raw, pre);
}

namespace {

/// %.17g: doubles survive a write -> parse -> write cycle bit-for-bit, which the
/// kill/resume byte-identical guarantee depends on.
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ConfigKey(const BenchConfig& config) {
  std::ostringstream os;
  os << "s" << config.scale << "_r" << config.seed;
  return os.str();
}

/// Keeps method/dataset names filesystem-safe for checkpoint file names.
std::string SanitizeFileName(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) c = '_';
  }
  return out;
}

/// One row per measure for a completed cell, or a single error row for a failed
/// one: the per-cell checkpoint file layout.
const std::vector<std::string>& CellCsvHeader() {
  static const auto* kHeader = new std::vector<std::string>{
      "status", "method", "dataset", "measure",
      "mean",   "stddev", "fit_seconds", "error"};
  return *kHeader;
}

struct CellOutcome {
  bool failed = false;
  std::vector<GridRow> rows;   ///< Populated when !failed.
  CellError error;             ///< Populated when failed.
};

/// Parses checkpoint body rows (header already stripped). Returns false on any
/// malformed row so a corrupt file falls back to recomputation.
bool ParseCellCsvRows(const std::vector<std::vector<std::string>>& lines,
                      std::vector<GridRow>* rows,
                      std::vector<CellError>* failures) {
  for (const auto& cells : lines) {
    if (cells.size() != CellCsvHeader().size()) return false;
    if (cells[0] == "ok") {
      GridRow row;
      row.method = cells[1];
      row.dataset = cells[2];
      row.measure = cells[3];
      if (!io::ParseDoubleCell(cells[4], &row.mean) ||
          !io::ParseDoubleCell(cells[5], &row.stddev) ||
          !io::ParseDoubleCell(cells[6], &row.fit_seconds)) {
        return false;
      }
      rows->push_back(std::move(row));
    } else if (cells[0] == "error") {
      failures->push_back({cells[1], cells[2], cells[7]});
    } else {
      return false;
    }
  }
  return true;
}

std::string CheckpointPath(const BenchConfig& config, const std::string& method,
                           const std::string& dataset) {
  return CheckpointDir(config) + "/" + SanitizeFileName(method) + "__" +
         SanitizeFileName(dataset) + ".csv";
}

/// Ownership marker for one in-flight cell of a sharded run. Lives next to the
/// checkpoint; the `.lease` suffix keeps it out of the `*.csv` checkpoint glob.
std::string CellLeasePath(const BenchConfig& config, const std::string& method,
                          const std::string& dataset) {
  return CheckpointPath(config, method, dataset) + ".lease";
}

Status WriteCellCheckpoint(const BenchConfig& config, const CellOutcome& cell) {
  const std::string& method =
      cell.failed ? cell.error.method : cell.rows.front().method;
  const std::string& dataset =
      cell.failed ? cell.error.dataset : cell.rows.front().dataset;
  std::vector<std::vector<std::string>> lines = {CellCsvHeader()};
  if (cell.failed) {
    lines.push_back({"error", method, dataset, "", "", "", "", cell.error.error});
  }
  for (const GridRow& row : cell.rows) {
    lines.push_back({"ok", method, dataset, row.measure, FormatDouble(row.mean),
                     FormatDouble(row.stddev), FormatDouble(row.fit_seconds), ""});
  }
  return io::WriteCsvRows(CheckpointPath(config, method, dataset), lines);
}

/// Loads a completed cell's checkpoint; returns false when absent or invalid (the
/// cell is then recomputed — never trust a partial or stale file).
bool LoadCellCheckpoint(const BenchConfig& config, const std::string& method,
                        const std::string& dataset, CellOutcome* cell) {
  const std::string path = CheckpointPath(config, method, dataset);
  if (!std::filesystem::exists(path)) return false;
  auto records = io::ReadCsvRows(path);
  if (!records.ok() || records.value().size() < 2) return false;
  if (records.value()[0] != CellCsvHeader()) return false;
  std::vector<GridRow> rows;
  std::vector<CellError> failures;
  const std::vector<std::vector<std::string>> body(records.value().begin() + 1,
                                                   records.value().end());
  if (!ParseCellCsvRows(body, &rows, &failures)) return false;
  // A checkpoint holds exactly one cell: either score rows or one error record.
  if (!failures.empty()) {
    if (failures.size() != 1 || !rows.empty()) return false;
    if (failures[0].method != method || failures[0].dataset != dataset) {
      return false;
    }
    cell->failed = true;
    cell->error = failures[0];
    return true;
  }
  if (rows.empty()) return false;
  for (const GridRow& row : rows) {
    if (row.method != method || row.dataset != dataset) return false;
  }
  cell->failed = false;
  cell->rows = std::move(rows);
  return true;
}

/// Deterministic JSON artifact: per-cell status and scores in sweep order, no
/// wall-clock values — identical bytes for a clean run and a kill/resume run.
void WriteGridSummary(const BenchConfig& config,
                      const std::vector<std::string>& methods,
                      const std::vector<data::DatasetId>& datasets,
                      const std::vector<CellOutcome>& outcomes) {
  io::JsonWriter json;
  json.BeginObject();
  json.Key("scale").Number(config.scale);
  json.Key("seed").Int(static_cast<int64_t>(config.seed));
  json.Key("methods").BeginArray();
  for (const std::string& m : methods) json.String(m);
  json.EndArray();
  json.Key("datasets").BeginArray();
  for (data::DatasetId id : datasets) json.String(data::DatasetName(id));
  json.EndArray();
  json.Key("cells").BeginArray();
  for (const CellOutcome& cell : outcomes) {
    json.BeginObject();
    if (cell.failed) {
      json.Key("method").String(cell.error.method);
      json.Key("dataset").String(cell.error.dataset);
      json.Key("status").String("error");
      json.Key("error").String(cell.error.error);
    } else {
      json.Key("method").String(cell.rows.front().method);
      json.Key("dataset").String(cell.rows.front().dataset);
      json.Key("status").String("ok");
      json.Key("scores").BeginObject();
      for (const GridRow& row : cell.rows) {
        json.Key(row.measure).BeginObject();
        json.Key("mean").Number(row.mean);
        json.Key("stddev").Number(row.stddev);
        json.EndObject();
      }
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  const Status s = io::WriteFileAtomic(GridSummaryPath(config), json.str() + "\n");
  if (!s.ok()) {
    obs::MetricRegistry::Global().GetCounter("grid.summary_write_failures").Add();
    std::fprintf(stderr, "summary write failed: %s\n", s.ToString().c_str());
  }
}

/// Harness plus the optional artifact store it serves from, configured
/// identically for every grid execution mode (in-process RunGrid, sharded
/// workers, merge stragglers) so each mode computes bit-identical cells.
struct GridHarness {
  std::unique_ptr<store::ArtifactStore> store;
  std::unique_ptr<core::Harness> harness;
};

GridHarness MakeGridHarness(const BenchConfig& config) {
  core::HarnessOptions options = GridHarnessOptions(config);
  GridHarness grid;
  // With a store configured, every cell checks for a prior fitted model before
  // training and publishes its model after. ArtifactStore is stateless over
  // atomic file operations, so concurrent cells — and concurrent worker
  // processes — can share it.
  if (!config.store_dir.empty()) {
    grid.store = std::make_unique<store::ArtifactStore>(config.store_dir);
    options.store = grid.store.get();
    std::fprintf(stderr, "[grid] artifact store at %s\n",
                 config.store_dir.c_str());
  }
  grid.harness = std::make_unique<core::Harness>(options);
  return grid;
}

/// Fits and evaluates one (method, dataset) cell. Deterministic in
/// (config, method, dataset): the cell seeds its Rng chain from the harness
/// options alone, so any process computing it produces identical rows.
CellOutcome ComputeCell(core::Harness& harness, const std::string& method_name,
                        const core::Preprocessed& pre) {
  CellOutcome outcome;
  const obs::ScopedTimer cell_span("grid.cell");
  obs::MetricRegistry::Global().GetCounter("grid.cells.computed").Add();
  auto method = methods::CreateMethod(method_name);
  if (!method.ok()) {
    outcome.failed = true;
    outcome.error = {method_name, pre.train.name(), method.status().ToString()};
    return outcome;
  }
  auto result = harness.RunMethod(*method.value(), pre.train, pre.test);
  if (!result.ok()) {
    outcome.failed = true;
    outcome.error = {method_name, pre.train.name(), result.status().ToString()};
    std::fprintf(stderr, "[grid]   %-12s / %-10s FAILED: %s\n",
                 method_name.c_str(), pre.train.name().c_str(),
                 result.status().ToString().c_str());
    return outcome;
  }
  outcome.rows.reserve(result.value().scores.size());
  for (const auto& [measure, summary] : result.value().scores) {
    outcome.rows.push_back({method_name, pre.train.name(), measure, summary.mean,
                            summary.std, result.value().fit_seconds});
  }
  std::fprintf(stderr, "[grid]   %-12s / %-10s fit %.1fs\n", method_name.c_str(),
               pre.train.name().c_str(), result.value().fit_seconds);
  return outcome;
}

/// Simulates + preprocesses datasets on first use, so a shard worker only pays
/// for the datasets of the cells it actually claims.
class LazyDatasets {
 public:
  LazyDatasets(const BenchConfig& config, std::vector<data::DatasetId> ids)
      : config_(config), ids_(std::move(ids)), prepared_(ids_.size()),
        ready_(ids_.size(), false) {}

  const core::Preprocessed& Get(size_t index) {
    if (!ready_[index]) {
      const obs::ScopedTimer prepare_span("grid.prepare_dataset");
      prepared_[index] = PrepareDataset(ids_[index], config_);
      ready_[index] = true;
    }
    return prepared_[index];
  }

 private:
  const BenchConfig& config_;
  const std::vector<data::DatasetId> ids_;
  std::vector<core::Preprocessed> prepared_;
  std::vector<bool> ready_;
};

/// One pass of the grid engine: every cell's outcome in dataset-major sweep
/// order, and how many of them came from checkpoints or were computed.
struct GridSweep {
  std::vector<CellOutcome> outcomes;
  int64_t loaded = 0;
  int64_t computed = 0;
  /// First failed checkpoint write, in sweep order. The outcomes are complete
  /// either way; only a later run has to recompute the affected cells.
  Status checkpoint_status;
};

/// The grid engine behind RunGrid and MergeGridShards. Loads each cell's
/// checkpoint; fits and evaluates the cells without one concurrently on the
/// global pool (TSG_THREADS-many at once), checkpointing each as it finishes,
/// so a kill at any point loses at most the in-flight cells; then writes the
/// summary. Replaying a checkpoint instead of computing the cell is sound
/// because each cell seeds its Rng chain from the config alone and the shared
/// embedder fit is deterministic: no cell's result depends on which process or
/// thread computed any other cell. With `compute_missing` false, a cell
/// without a valid checkpoint is NotFound and nothing is computed or written.
StatusOr<GridSweep> SweepGrid(const BenchConfig& config,
                              const std::vector<std::string>& methods,
                              const std::vector<data::DatasetId>& datasets,
                              bool compute_missing) {
  std::filesystem::create_directories(CheckpointDir(config));
  const size_t num_methods = methods.size();
  const size_t num_cells = datasets.size() * num_methods;
  GridSweep sweep;
  sweep.outcomes.resize(num_cells);
  std::vector<size_t> missing;
  std::vector<bool> dataset_needed(datasets.size(), false);
  for (size_t cell = 0; cell < num_cells; ++cell) {
    const std::string dataset = data::DatasetName(datasets[cell / num_methods]);
    const std::string& method = methods[cell % num_methods];
    if (LoadCellCheckpoint(config, method, dataset, &sweep.outcomes[cell])) {
      ++sweep.loaded;
      continue;
    }
    if (!compute_missing) {
      return Status::NotFound("no checkpoint for cell " + method + " / " +
                              dataset + " in " + CheckpointDir(config));
    }
    missing.push_back(cell);
    dataset_needed[cell / num_methods] = true;
  }
  if (sweep.loaded > 0) {
    std::fprintf(stderr, "[grid] resumed %lld/%zu cells from %s\n",
                 static_cast<long long>(sweep.loaded), num_cells,
                 CheckpointDir(config).c_str());
  }

  if (!missing.empty()) {
    // Simulate + preprocess each dataset that has missing cells (independent
    // and deterministic).
    const auto prepared = base::ParallelMap<core::Preprocessed>(
        static_cast<int64_t>(datasets.size()), 1, [&](int64_t di) {
          if (!dataset_needed[static_cast<size_t>(di)]) return core::Preprocessed();
          const obs::ScopedTimer prepare_span("grid.prepare_dataset");
          core::Preprocessed pre =
              PrepareDataset(datasets[static_cast<size_t>(di)], config);
          std::fprintf(stderr, "[grid] dataset %s: R_train=%lld l=%lld N=%lld\n",
                       pre.train.name().c_str(),
                       static_cast<long long>(pre.train.num_samples()),
                       static_cast<long long>(pre.train.seq_len()),
                       static_cast<long long>(pre.train.num_features()));
          return pre;
        });
    // Each cell builds its own method instance, so cells never share mutable
    // state (the harness serializes its embedder cache internally), and each
    // writes only its own outcome slot and checkpoint file.
    const GridHarness grid = MakeGridHarness(config);
    std::vector<Status> written(missing.size());
    base::ParallelFor(0, static_cast<int64_t>(missing.size()), 1,
                      [&](int64_t chunk_begin, int64_t chunk_end) {
      for (int64_t i = chunk_begin; i < chunk_end; ++i) {
        const size_t cell = missing[static_cast<size_t>(i)];
        CellOutcome& outcome = sweep.outcomes[cell];
        outcome = ComputeCell(*grid.harness, methods[cell % num_methods],
                              prepared[cell / num_methods]);
        written[static_cast<size_t>(i)] = WriteCellCheckpoint(config, outcome);
      }
    });
    for (const Status& s : written) {
      if (s.ok()) continue;
      obs::MetricRegistry::Global().GetCounter("grid.checkpoint_write_failures").Add();
      std::fprintf(stderr, "checkpoint write failed: %s\n", s.ToString().c_str());
      if (sweep.checkpoint_status.ok()) sweep.checkpoint_status = s;
    }
    sweep.computed = static_cast<int64_t>(missing.size());
  }
  WriteGridSummary(config, methods, datasets, sweep.outcomes);
  return sweep;
}

/// Flattens outcomes into score rows and failure records (sweep order),
/// counting each cell under `ok_counter` or `failed_counter`.
GridResult CollectResult(const std::vector<CellOutcome>& outcomes,
                         const char* ok_counter, const char* failed_counter) {
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  GridResult result;
  for (const CellOutcome& outcome : outcomes) {
    if (outcome.failed) {
      metrics.GetCounter(failed_counter).Add();
      result.failures.push_back(outcome.error);
    } else {
      metrics.GetCounter(ok_counter).Add();
      result.rows.insert(result.rows.end(), outcome.rows.begin(),
                         outcome.rows.end());
    }
  }
  return result;
}

}  // namespace

core::HarnessOptions GridHarnessOptions(const BenchConfig& config) {
  core::HarnessOptions options;
  options.fit.epoch_scale = config.epoch_scale();
  options.fit.seed = config.seed;
  options.stochastic_repeats = config.stochastic_repeats();
  options.max_eval_samples = config.max_eval_samples();
  options.embedder.epochs = std::max(4, static_cast<int>(10 * config.scale));
  options.seed = config.seed;
  return options;
}

std::string CheckpointDir(const BenchConfig& config) {
  return config.out_dir + "/grid_ckpt_" + ConfigKey(config);
}

std::string GridSummaryPath(const BenchConfig& config) {
  return config.out_dir + "/grid_summary_" + ConfigKey(config) + ".json";
}

GridResult RunGrid(const BenchConfig& config,
                   const std::vector<std::string>& methods,
                   const std::vector<data::DatasetId>& datasets) {
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  const obs::ScopedTimer grid_span("grid.run");
  // A sweep that computes its missing cells has no error return.
  GridSweep sweep =
      SweepGrid(config, methods, datasets, /*compute_missing=*/true).value();
  metrics.GetCounter("grid.cells.total")
      .Add(static_cast<int64_t>(sweep.outcomes.size()));
  metrics.GetCounter("grid.cells.resumed").Add(sweep.loaded);
  return CollectResult(sweep.outcomes, "grid.cells.ok", "grid.cells.failed");
}

StatusOr<bool> BreakDeadCellLease(const BenchConfig& config,
                                  const std::string& method,
                                  const std::string& dataset,
                                  double stale_seconds) {
  const std::string lease_path = CellLeasePath(config, method, dataset);
  if (io::ProbeLease(lease_path, stale_seconds) != io::LeaseState::kDead) {
    return false;
  }
  StatusOr<bool> broke = io::BreakLease(lease_path, io::LeaseOwnerToken());
  if (!broke.ok() || !broke.value()) return broke;
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  metrics.GetCounter("grid.shard.leases.stolen").Add();
  if (!std::filesystem::exists(CheckpointPath(config, method, dataset))) {
    // The dead owner never finished the cell: it goes back to the pool.
    metrics.GetCounter("grid.cells.reclaimed").Add();
    std::fprintf(stderr, "[grid] reclaimed dead cell %s / %s\n", method.c_str(),
                 dataset.c_str());
  }
  return true;
}

StatusOr<int64_t> RunGridShard(const BenchConfig& config,
                               const std::vector<std::string>& methods,
                               const std::vector<data::DatasetId>& datasets,
                               const ShardOptions& options) {
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  obs::ScopedTimer shard_span("grid.shard.run");
  const GridHarness grid = MakeGridHarness(config);
  std::filesystem::create_directories(CheckpointDir(config));
  const std::string& token = io::LeaseOwnerToken();
  const char* label = options.worker_label.c_str();

  const int64_t num_methods = static_cast<int64_t>(methods.size());
  const int64_t num_cells = static_cast<int64_t>(datasets.size()) * num_methods;
  LazyDatasets prepared(config, datasets);
  std::vector<bool> done(static_cast<size_t>(num_cells), false);

  int64_t completed = 0;
  auto last_progress = std::chrono::steady_clock::now();
  for (;;) {
    bool progressed = false;
    for (int64_t cell = 0; cell < num_cells; ++cell) {
      if (options.should_stop && options.should_stop()) {
        metrics.GetCounter("grid.shard.stopped").Add();
        std::fprintf(stderr, "[%s] stop requested after %lld cells\n", label,
                     static_cast<long long>(completed));
        return Status::FailedPrecondition(options.worker_label +
                                          ": stopped before grid completion");
      }
      if (done[static_cast<size_t>(cell)]) continue;
      const size_t di = static_cast<size_t>(cell / num_methods);
      const std::string dataset = data::DatasetName(datasets[di]);
      const std::string& method =
          methods[static_cast<size_t>(cell % num_methods)];
      const std::string ckpt_path = CheckpointPath(config, method, dataset);
      if (std::filesystem::exists(ckpt_path)) {
        done[static_cast<size_t>(cell)] = true;
        progressed = true;
        continue;
      }
      const std::string lease_path = CellLeasePath(config, method, dataset);
      StatusOr<bool> acquired = io::AcquireLease(lease_path, token);
      if (!acquired.ok()) return acquired.status();
      if (!acquired.value()) {
        // Held by another worker. A finished owner removes its lease only
        // after its checkpoint landed, so held + no checkpoint is either a
        // live computation (wait) or a casualty (reclaim). The breaker can
        // still lose the re-acquire to another worker's plain claim; that
        // worker then computes the cell the breaker already counted.
        StatusOr<bool> broke = BreakDeadCellLease(
            config, method, dataset, options.lease_stale_seconds);
        if (!broke.ok()) return broke.status();
        if (broke.value()) acquired = io::AcquireLease(lease_path, token);
        if (!acquired.ok()) return acquired.status();
        if (!acquired.value()) {
          if (!std::filesystem::exists(ckpt_path)) {
            metrics.GetCounter("grid.shard.lease_conflicts").Add();
          }
          continue;
        }
      }
      // We hold the lease. Re-check the checkpoint: the previous owner may
      // have died after checkpointing but before releasing.
      if (std::filesystem::exists(ckpt_path)) {
        (void)io::ReleaseLease(lease_path, token);
        done[static_cast<size_t>(cell)] = true;
        progressed = true;
        continue;
      }
      metrics.GetCounter("grid.shard.cells.claimed").Add();
      std::fprintf(stderr, "[%s] claimed %s / %s\n", label, method.c_str(),
                   dataset.c_str());
      const CellOutcome outcome =
          ComputeCell(*grid.harness, method, prepared.Get(di));
      const Status ckpt = WriteCellCheckpoint(config, outcome);
      if (!ckpt.ok()) {
        metrics.GetCounter("grid.checkpoint_write_failures").Add();
        return ckpt;
      }
      metrics.GetCounter("grid.shard.cells.completed").Add();
      const Status released = io::ReleaseLease(lease_path, token);
      if (!released.ok()) {
        // Stolen mid-compute after being (wrongly) declared dead. Harmless:
        // the checkpoint is durable and deterministic, so whatever the thief
        // writes is byte-identical. Count it and move on.
        metrics.GetCounter("grid.shard.lease_release_failures").Add();
        std::fprintf(stderr, "[%s] lease release: %s\n", label,
                     released.ToString().c_str());
      }
      done[static_cast<size_t>(cell)] = true;
      ++completed;
      progressed = true;
    }
    bool all_done = true;
    for (int64_t cell = 0; cell < num_cells; ++cell) {
      if (!done[static_cast<size_t>(cell)]) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    const auto now = std::chrono::steady_clock::now();
    if (progressed) {
      last_progress = now;
      continue;
    }
    const double waited =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            now - last_progress)
            .count();
    if (waited > options.max_wait_seconds) {
      return Status::FailedPrecondition(
          options.worker_label + ": no progress for " +
          std::to_string(waited) + "s waiting on cells held by live workers");
    }
    if (options.should_stop && options.should_stop()) {
      metrics.GetCounter("grid.shard.stopped").Add();
      return Status::FailedPrecondition(options.worker_label +
                                        ": stopped before grid completion");
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.poll_seconds));
  }
  std::fprintf(stderr, "[%s] shard done: computed %lld/%lld cells\n", label,
               static_cast<long long>(completed),
               static_cast<long long>(num_cells));
  return completed;
}

StatusOr<GridResult> MergeGridShards(const BenchConfig& config,
                                     const std::vector<std::string>& methods,
                                     const std::vector<data::DatasetId>& datasets,
                                     const MergeOptions& options) {
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  const obs::ScopedTimer merge_span("grid.shard.merge");
  const std::string& token = io::LeaseOwnerToken();

  // Lease pass: no worker may still own a cell, and whatever a dead one left
  // behind is cleared before the sweep reads the checkpoints.
  for (const data::DatasetId id : datasets) {
    const std::string dataset = data::DatasetName(id);
    for (const std::string& method : methods) {
      const std::string lease_path = CellLeasePath(config, method, dataset);
      if (!std::filesystem::exists(lease_path)) continue;
      if (std::filesystem::exists(CheckpointPath(config, method, dataset))) {
        // Owner died after checkpointing but before releasing: the work is
        // done, only the marker is orphaned.
        std::remove(lease_path.c_str());
        metrics.GetCounter("grid.shard.merge.leases_cleaned").Add();
        continue;
      }
      const io::LeaseState state =
          io::ProbeLease(lease_path, options.lease_stale_seconds);
      if (state == io::LeaseState::kLive) {
        return Status::FailedPrecondition(
            "cell " + method + " / " + dataset +
            " is still held by a live worker; merge after the workers exit");
      }
      if (state == io::LeaseState::kDead) {
        StatusOr<bool> broke = io::BreakLease(lease_path, token);
        if (!broke.ok()) return broke.status();
        if (broke.value()) {
          metrics.GetCounter("grid.shard.merge.leases_reclaimed").Add();
        }
      }
    }
  }

  // The same engine as RunGrid, so the merged summary (timing-free, %.17g) is
  // byte-identical to a single-process run.
  StatusOr<GridSweep> sweep =
      SweepGrid(config, methods, datasets, options.compute_missing);
  if (!sweep.ok()) {
    // Only a strict merge fails here, on its first missing cell.
    metrics.GetCounter("grid.shard.merge.cells_missing").Add();
    return sweep.status();
  }
  const GridSweep& swept = sweep.value();
  if (swept.loaded > 0) {
    metrics.GetCounter("grid.shard.merge.cells_loaded").Add(swept.loaded);
  }
  if (swept.computed > 0) {
    metrics.GetCounter("grid.shard.merge.cells_missing").Add(swept.computed);
    metrics.GetCounter("grid.shard.merge.cells_computed").Add(swept.computed);
  }
  TSG_RETURN_IF_ERROR(swept.checkpoint_status);
  return CollectResult(swept.outcomes, "grid.shard.merge.cells_ok",
                       "grid.shard.merge.cells_error");
}

StatusOr<data::DatasetId> ParseDatasetName(const std::string& name) {
  for (const data::DatasetId id : data::AllDatasets()) {
    if (name == data::DatasetName(id)) return id;
  }
  return Status::InvalidArgument("unknown dataset: " + name);
}

StatusOr<std::vector<data::DatasetId>> ParseDatasetList(const std::string& csv) {
  if (csv.empty()) return data::AllDatasets();
  std::vector<data::DatasetId> out;
  for (const std::string& name : SplitCsvList(csv)) {
    TSG_ASSIGN_OR_RETURN(const data::DatasetId id, ParseDatasetName(name));
    out.push_back(id);
  }
  if (out.empty()) return Status::InvalidArgument("empty dataset list: " + csv);
  return out;
}

StatusOr<std::vector<std::string>> ParseMethodList(const std::string& csv) {
  if (csv.empty()) return methods::AllMethodNames();
  const std::vector<std::string>& known = methods::AllMethodNames();
  std::vector<std::string> out;
  for (const std::string& name : SplitCsvList(csv)) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument("unknown method: " + name);
    }
    out.push_back(name);
  }
  if (out.empty()) return Status::InvalidArgument("empty method list: " + csv);
  return out;
}

size_t ReportFailures(const GridResult& grid) {
  for (const CellError& failure : grid.failures) {
    std::fprintf(stderr, "[grid] FAILED cell %s / %s: %s\n",
                 failure.method.c_str(), failure.dataset.c_str(),
                 failure.error.c_str());
  }
  return grid.failures.size();
}

std::vector<core::CellResult> ToCells(const std::vector<GridRow>& rows,
                                      const std::vector<std::string>& measures) {
  std::vector<core::CellResult> cells;
  for (const std::string& measure : measures) {
    if (measure == "Time") {
      // Deduplicate by (method, dataset) — fit time repeats on every measure row.
      std::vector<std::pair<std::string, std::string>> seen;
      for (const GridRow& row : rows) {
        const auto key = std::make_pair(row.method, row.dataset);
        if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
        seen.push_back(key);
        cells.push_back({row.method, row.dataset, "Time", row.fit_seconds, 0.0});
      }
      continue;
    }
    for (const GridRow& row : rows) {
      if (row.measure == measure) {
        cells.push_back({row.method, row.dataset, row.measure, row.mean, row.stddev});
      }
    }
  }
  return cells;
}

namespace {

std::vector<std::string> Distinct(const std::vector<GridRow>& rows,
                                  std::string GridRow::*field) {
  std::vector<std::string> out;
  for (const GridRow& row : rows) {
    if (std::find(out.begin(), out.end(), row.*field) == out.end()) {
      out.push_back(row.*field);
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> DistinctMeasures(const std::vector<GridRow>& rows) {
  return Distinct(rows, &GridRow::measure);
}

std::vector<std::string> DistinctDatasets(const std::vector<GridRow>& rows) {
  return Distinct(rows, &GridRow::dataset);
}

}  // namespace tsg::bench
