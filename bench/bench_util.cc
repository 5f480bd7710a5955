#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "io/atomic_file.h"
#include "io/json_parse.h"
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

/// One grid cell as the sweep holds it. `result.method` is the grid's registry
/// name, which a wrapper method's name() need not equal; when the cell failed,
/// `result` carries only the two names and `error` the status string.
struct CellOutcome {
  core::MethodRunResult result;
  bool failed = false;
  std::string error;
};

/// Ownership marker for one in-flight cell of a sharded run. Lives next to the
/// checkpoint; the `.lease` suffix keeps it out of the `*.json` checkpoint glob.
std::string CellLeasePath(const BenchConfig& config, const std::string& method,
                          const std::string& dataset) {
  return CheckpointPath(config, method, dataset) + ".lease";
}

/// The sweep's cell object: WriteCellJson for a finished cell, or the error
/// form {"method","dataset","status":"error","error"} that only a grid cell
/// takes.
void WriteCellOutcome(const CellOutcome& cell, bool with_fit_seconds,
                      io::JsonWriter* json) {
  if (!cell.failed) {
    WriteCellJson(cell.result, with_fit_seconds, json);
    return;
  }
  json->BeginObject();
  json->Key("method").String(cell.result.method);
  json->Key("dataset").String(cell.result.dataset);
  json->Key("status").String("error");
  json->Key("error").String(cell.error);
  json->EndObject();
}

Status WriteCellCheckpoint(const BenchConfig& config, const CellOutcome& cell) {
  io::JsonWriter json;
  WriteCellOutcome(cell, /*with_fit_seconds=*/true, &json);
  return io::WriteFileAtomic(
      CheckpointPath(config, cell.result.method, cell.result.dataset),
      json.str() + "\n");
}

/// `object`'s member `key` into *out when that member is a number.
bool ReadNumber(const io::JsonValue& object, const std::string& key, double* out) {
  const io::JsonValue* member = object.Find(key);
  if (member == nullptr || !member->is_number()) return false;
  *out = member->number_value();
  return true;
}

/// Loads a finished cell's checkpoint. It counts only when it is an object
/// naming this cell whose status is "ok", with a non-empty "scores" object of
/// numeric mean/stddev and a numeric "fit_seconds", or "error", with a string
/// "error". Anything else (absent, unparsable, a null or quoted number, another
/// cell's, another build's format) returns false, and the cell is recomputed:
/// never trust a partial or stale file.
bool LoadCellCheckpoint(const BenchConfig& config, const std::string& method,
                        const std::string& dataset, CellOutcome* cell) {
  const StatusOr<std::string> text =
      io::ReadFileToString(CheckpointPath(config, method, dataset));
  if (!text.ok()) return false;
  const StatusOr<io::JsonValue> parsed = io::JsonValue::Parse(text.value());
  if (!parsed.ok()) return false;
  const io::JsonValue& root = parsed.value();
  if (!root.is_object() || root.GetString("method", "") != method ||
      root.GetString("dataset", "") != dataset) {
    return false;
  }
  const std::string status = root.GetString("status", "");
  const io::JsonValue* error = root.Find("error");
  const io::JsonValue* scores = root.Find("scores");
  CellOutcome loaded;
  loaded.result.method = method;
  loaded.result.dataset = dataset;
  if (status == "error" && error != nullptr && error->is_string()) {
    loaded.failed = true;
    loaded.error = error->string_value();
  } else if (status == "ok" && scores != nullptr && scores->is_object() &&
             !scores->object_items().empty() &&
             ReadNumber(root, "fit_seconds", &loaded.result.fit_seconds)) {
    for (const auto& [measure, score] : scores->object_items()) {
      stats::MeanStd summary;
      if (!ReadNumber(score, "mean", &summary.mean) ||
          !ReadNumber(score, "stddev", &summary.std)) {
        return false;
      }
      loaded.result.scores.emplace_back(measure, summary);
    }
  } else {
    return false;
  }
  *cell = std::move(loaded);
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
    WriteCellOutcome(cell, /*with_fit_seconds=*/false, &json);
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
/// options alone, so any process computing it produces an identical cell.
CellOutcome ComputeCell(core::Harness& harness, const std::string& method_name,
                        const core::Preprocessed& pre) {
  CellOutcome outcome;
  outcome.result.method = method_name;
  outcome.result.dataset = pre.train.name();
  const obs::ScopedTimer cell_span("grid.cell");
  obs::MetricRegistry::Global().GetCounter("grid.cells.computed").Add();
  auto method = methods::CreateMethod(method_name);
  if (!method.ok()) {
    outcome.failed = true;
    outcome.error = method.status().ToString();
    return outcome;
  }
  auto result = harness.RunMethod(*method.value(), pre.train, pre.test);
  if (!result.ok()) {
    outcome.failed = true;
    outcome.error = result.status().ToString();
    std::fprintf(stderr, "[grid]   %-12s / %-10s FAILED: %s\n",
                 method_name.c_str(), pre.train.name().c_str(),
                 result.status().ToString().c_str());
    return outcome;
  }
  outcome.result = std::move(result).value();
  outcome.result.method = method_name;
  std::fprintf(stderr, "[grid]   %-12s / %-10s fit %.1fs\n", method_name.c_str(),
               pre.train.name().c_str(), outcome.result.fit_seconds);
  return outcome;
}

/// How one claim attempt on a cell ended.
enum class Claim { kLoaded, kComputed, kHeld, kStopped };

/// Pause between rounds while live owners hold the remaining cells.
constexpr double kHeldCellRetrySeconds = 0.05;

/// Splits outcomes into finished cells and failure records (sweep order), and
/// counts the cells: grid.cells.{total,resumed} and, per cell, grid.cells.ok
/// or grid.cells.failed.
GridResult CollectResult(std::vector<CellOutcome> outcomes, int64_t loaded,
                         int64_t computed) {
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  metrics.GetCounter("grid.cells.total").Add(static_cast<int64_t>(outcomes.size()));
  metrics.GetCounter("grid.cells.resumed").Add(loaded);
  GridResult result;
  result.computed = computed;
  for (CellOutcome& outcome : outcomes) {
    if (outcome.failed) {
      metrics.GetCounter("grid.cells.failed").Add();
      result.failures.push_back(
          {outcome.result.method, outcome.result.dataset, outcome.error});
    } else {
      metrics.GetCounter("grid.cells.ok").Add();
      result.cells.push_back(std::move(outcome.result));
    }
  }
  return result;
}

/// The grid sweep: the only code that loads, claims or computes a grid cell,
/// behind RunGrid, RunGridShard and MergeGridShards. Loads each cell's
/// checkpoint; claims the cells without a valid one concurrently on the global
/// pool (TSG_THREADS-many at once) under their leases, re-loading the
/// checkpoint a peer may have written in the meantime and otherwise fitting,
/// evaluating and checkpointing the cell, so a kill at any point loses at most
/// the in-flight cells. Cells a live owner holds are retried every round until
/// `max_wait_seconds` pass without progress or `should_stop` fires. Each
/// dataset is prepared once, when its first cell is claimed. Finally writes the
/// summary. Replaying a checkpoint instead of computing the cell is sound
/// because each cell seeds its Rng chain from the config alone and the shared
/// embedder fit is deterministic: no cell's result depends on which process or
/// thread computed any other cell. With `compute_missing` false, a cell without
/// a valid checkpoint is NotFound and nothing is claimed or written.
StatusOr<GridResult> SweepGrid(const BenchConfig& config,
                               const std::vector<std::string>& methods,
                               const std::vector<data::DatasetId>& datasets,
                               const ShardOptions& options, bool compute_missing) {
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  std::filesystem::create_directories(CheckpointDir(config));
  const size_t num_methods = methods.size();
  const size_t num_cells = datasets.size() * num_methods;
  std::vector<CellOutcome> outcomes(num_cells);
  int64_t loaded = 0;
  int64_t computed = 0;
  std::vector<size_t> pending;
  for (size_t cell = 0; cell < num_cells; ++cell) {
    const std::string dataset = data::DatasetName(datasets[cell / num_methods]);
    const std::string& method = methods[cell % num_methods];
    if (LoadCellCheckpoint(config, method, dataset, &outcomes[cell])) {
      ++loaded;
    } else if (!compute_missing) {
      return Status::NotFound("no checkpoint for cell " + method + " / " + dataset +
                              " in " + CheckpointDir(config));
    } else {
      pending.push_back(cell);
    }
  }
  if (loaded > 0) {
    std::fprintf(stderr, "[grid] resumed %lld/%zu cells from %s\n",
                 static_cast<long long>(loaded), num_cells,
                 CheckpointDir(config).c_str());
  }

  if (!pending.empty()) {
    // Each cell builds its own method instance, so cells never share mutable
    // state (the harness serializes its embedder cache internally), and each
    // writes only its own outcome slot and checkpoint file.
    const GridHarness grid = MakeGridHarness(config);
    std::vector<core::Preprocessed> prepared(datasets.size());
    std::vector<std::once_flag> prepare_once(datasets.size());
    const auto dataset_of = [&](size_t di) -> const core::Preprocessed& {
      std::call_once(prepare_once[di], [&] {
        const obs::ScopedTimer prepare_span("grid.prepare_dataset");
        prepared[di] = PrepareDataset(datasets[di], config);
        const core::Preprocessed& pre = prepared[di];
        std::fprintf(stderr, "[grid] dataset %s: R_train=%lld l=%lld N=%lld\n",
                     pre.train.name().c_str(),
                     static_cast<long long>(pre.train.num_samples()),
                     static_cast<long long>(pre.train.seq_len()),
                     static_cast<long long>(pre.train.num_features()));
      });
      return prepared[di];
    };
    const std::string& token = io::LeaseOwnerToken();
    // One claim attempt; on kComputed, *written is the checkpoint write.
    const auto claim = [&](size_t cell, Status* written) -> StatusOr<Claim> {
      const std::string dataset = data::DatasetName(datasets[cell / num_methods]);
      const std::string& method = methods[cell % num_methods];
      const std::string lease = CellLeasePath(config, method, dataset);
      TSG_ASSIGN_OR_RETURN(bool acquired, io::AcquireLease(lease, token));
      if (!acquired) {
        // Held: a live computation (wait) or a casualty (reclaim). The
        // breaker can still lose the re-acquire to another worker's claim.
        TSG_ASSIGN_OR_RETURN(const bool broke,
                             BreakDeadCellLease(config, method, dataset,
                                                options.lease_stale_seconds));
        if (broke) {
          TSG_ASSIGN_OR_RETURN(acquired, io::AcquireLease(lease, token));
        }
        if (!acquired) {
          metrics.GetCounter("grid.shard.lease_conflicts").Add();
          return Claim::kHeld;
        }
      }
      // Under the lease, a valid checkpoint means a peer finished the cell
      // after this sweep's first look.
      Claim result = Claim::kLoaded;
      if (!LoadCellCheckpoint(config, method, dataset, &outcomes[cell])) {
        outcomes[cell] = ComputeCell(*grid.harness, method, dataset_of(cell / num_methods));
        *written = WriteCellCheckpoint(config, outcomes[cell]);
        result = Claim::kComputed;
      }
      const Status released = io::ReleaseLease(lease, token);
      if (!released.ok()) {
        // Stolen mid-compute after being (wrongly) declared dead. Harmless:
        // the checkpoint is deterministic, so the thief writes the same bytes.
        metrics.GetCounter("grid.shard.lease_release_failures").Add();
        std::fprintf(stderr, "[%s] lease release: %s\n", options.worker_label.c_str(),
                     released.ToString().c_str());
      }
      return result;
    };

    auto last_progress = std::chrono::steady_clock::now();
    for (;;) {
      // A cell skipped because should_stop fired stays kStopped.
      std::vector<StatusOr<Claim>> claims(pending.size(), Claim::kStopped);
      std::vector<Status> written(pending.size());
      base::ParallelFor(0, static_cast<int64_t>(pending.size()), 1,
                        [&](int64_t chunk_begin, int64_t chunk_end) {
        for (int64_t i = chunk_begin; i < chunk_end; ++i) {
          if (options.should_stop && options.should_stop()) continue;
          const size_t slot = static_cast<size_t>(i);
          claims[slot] = claim(pending[slot], &written[slot]);
        }
      });
      // Fold in sweep order, so the first error reported is deterministic.
      std::vector<size_t> held;
      for (size_t i = 0; i < pending.size(); ++i) {
        if (!claims[i].ok()) return claims[i].status();
        if (!written[i].ok()) {
          metrics.GetCounter("grid.checkpoint_write_failures").Add();
          return written[i];
        }
        switch (claims[i].value()) {
          case Claim::kLoaded:
            ++loaded;
            break;
          case Claim::kComputed:
            ++computed;
            break;
          case Claim::kHeld:
            held.push_back(pending[i]);
            break;
          case Claim::kStopped:
            metrics.GetCounter("grid.shard.stopped").Add();
            return Status::FailedPrecondition(options.worker_label +
                                              ": stopped before grid completion");
        }
      }
      const auto now = std::chrono::steady_clock::now();
      if (held.size() < pending.size()) last_progress = now;
      pending = std::move(held);
      if (pending.empty()) break;
      const double waited = std::chrono::duration<double>(now - last_progress).count();
      if (waited > options.max_wait_seconds) {
        return Status::FailedPrecondition(options.worker_label + ": no progress for " +
                                          std::to_string(waited) +
                                          "s waiting on cells held by live workers");
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(kHeldCellRetrySeconds));
    }
  }
  WriteGridSummary(config, methods, datasets, outcomes);
  return CollectResult(std::move(outcomes), loaded, computed);
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

std::string CheckpointPath(const BenchConfig& config, const std::string& method,
                           const std::string& dataset) {
  return CheckpointDir(config) + "/" + SanitizeFileName(method) + "__" +
         SanitizeFileName(dataset) + ".json";
}

void WriteCellJson(const core::MethodRunResult& result, bool with_fit_seconds,
                   io::JsonWriter* json) {
  json->BeginObject();
  json->Key("method").String(result.method);
  json->Key("dataset").String(result.dataset);
  json->Key("status").String("ok");
  json->Key("scores").BeginObject();
  for (const auto& [measure, summary] : result.scores) {
    json->Key(measure).BeginObject();
    json->Key("mean").Number(summary.mean);
    json->Key("stddev").Number(summary.std);
    json->EndObject();
  }
  json->EndObject();
  if (with_fit_seconds) json->Key("fit_seconds").Number(result.fit_seconds);
  json->EndObject();
}

std::string GridSummaryPath(const BenchConfig& config) {
  return config.out_dir + "/grid_summary_" + ConfigKey(config) + ".json";
}

GridResult RunGrid(const BenchConfig& config,
                   const std::vector<std::string>& methods,
                   const std::vector<data::DatasetId>& datasets) {
  const obs::ScopedTimer grid_span("grid.run");
  return SweepGrid(config, methods, datasets, ShardOptions{}, /*compute_missing=*/true)
      .value();
}

StatusOr<bool> BreakDeadCellLease(const BenchConfig& config,
                                  const std::string& method,
                                  const std::string& dataset,
                                  double stale_seconds) {
  const std::string lease_path = CellLeasePath(config, method, dataset);
  std::string owner;
  if (io::ProbeLease(lease_path, stale_seconds, &owner) != io::LeaseState::kDead) {
    return false;
  }
  StatusOr<bool> broke = io::BreakLease(lease_path, owner, io::LeaseOwnerToken());
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

StatusOr<GridResult> RunGridShard(const BenchConfig& config,
                                  const std::vector<std::string>& methods,
                                  const std::vector<data::DatasetId>& datasets,
                                  const ShardOptions& options) {
  const obs::ScopedTimer shard_span("grid.shard.run");
  TSG_ASSIGN_OR_RETURN(GridResult grid, SweepGrid(config, methods, datasets, options,
                                                  /*compute_missing=*/true));
  std::fprintf(stderr, "[%s] grid done: computed %lld cells\n",
               options.worker_label.c_str(), static_cast<long long>(grid.computed));
  return grid;
}

StatusOr<GridResult> MergeGridShards(const BenchConfig& config,
                                     const std::vector<std::string>& methods,
                                     const std::vector<data::DatasetId>& datasets,
                                     const MergeOptions& options) {
  const obs::ScopedTimer merge_span("grid.shard.merge");
  // Lease pass: no worker may still own a cell, and a lease whose owner died
  // after checkpointing is cleared. Dead leases on unfinished cells are the
  // sweep's to reclaim.
  for (const data::DatasetId id : datasets) {
    const std::string dataset = data::DatasetName(id);
    for (const std::string& method : methods) {
      const std::string lease_path = CellLeasePath(config, method, dataset);
      if (!std::filesystem::exists(lease_path)) continue;
      if (std::filesystem::exists(CheckpointPath(config, method, dataset))) {
        std::remove(lease_path.c_str());
        obs::MetricRegistry::Global()
            .GetCounter("grid.shard.merge.leases_cleaned")
            .Add();
        continue;
      }
      if (io::ProbeLease(lease_path, options.lease_stale_seconds) ==
          io::LeaseState::kLive) {
        return Status::FailedPrecondition(
            "cell " + method + " / " + dataset +
            " is still held by a live worker; merge after the workers exit");
      }
    }
  }

  // The same sweep as RunGrid, so the merged summary (timing-free, %.17g) is
  // byte-identical to a single-process run.
  ShardOptions sweep_options;
  sweep_options.worker_label = "grid-merge";
  sweep_options.lease_stale_seconds = options.lease_stale_seconds;
  return SweepGrid(config, methods, datasets, sweep_options, options.compute_missing);
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

}  // namespace tsg::bench
