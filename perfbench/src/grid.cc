// grid_cold: the paper's fit -> generate -> evaluate cell, computed cold by
// bench::RunGrid (fresh out dir, empty model store), so every cell trains.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>

#include "context.h"
#include "io/atomic_file.h"
#include "io/json_parse.h"
#include "methods/factory.h"
#include "obs/metrics.h"
#include "stats.h"
#include "store/artifact_store.h"

namespace perfbench {

namespace {

using tsg::data::DatasetId;

const std::vector<std::string>& LongMethods() {
  static const auto* kMethods =
      new std::vector<std::string>{"TimeVAE", "FourierFlow", "RGAN", "LS4"};
  return *kMethods;
}

constexpr const char* kTracedPrefix = "perfbench.";

/// Per-method facts the traced grid's wrappers collect.
struct GridTrace {
  SpanLog* log = nullptr;
  std::mutex mu;
  std::map<std::string, double> nodes_per_step;  ///< First (Stock) fit wins.
  std::atomic<int64_t> next_request{0};
};

GridTrace* g_grid_trace = nullptr;

/// Delegates to a paper method under a "perfbench.<name>" registry name and
/// records a span around its Fit and Generate. name() and the hyperparameter
/// digest are the inner method's, so the cell computes exactly what the
/// untraced grid computes.
class TracedMethod : public tsg::core::TsgMethod {
 public:
  TracedMethod(std::unique_ptr<tsg::core::TsgMethod> inner, GridTrace* trace)
      : inner_(std::move(inner)), trace_(trace),
        request_(trace->next_request.fetch_add(1)) {}

  tsg::Status Fit(const tsg::core::Dataset& train,
                  const tsg::core::FitOptions& options) override {
    tsg::Status status;
    {
      ScopedSpan span(trace_->log, "methods.fit." + inner_->name(), request_);
      status = inner_->Fit(train, options);
    }
    // Cells run one at a time at TSG_THREADS=1, so the gauge still holds the
    // value this method's last training step wrote.
    const double nodes =
        tsg::obs::MetricRegistry::Global().GetGauge("ag.nodes.per_step").value();
    std::lock_guard<std::mutex> lock(trace_->mu);
    trace_->nodes_per_step.emplace(inner_->name(), nodes);
    return status;
  }
  std::vector<tsg::linalg::Matrix> Generate(int64_t count, tsg::Rng& rng) const override {
    ScopedSpan span(trace_->log, "methods.generate." + inner_->name(), request_);
    return inner_->Generate(count, rng);
  }
  std::vector<std::vector<tsg::linalg::Matrix>> GenerateBatch(
      const std::vector<tsg::core::GenRequest>& requests) const override {
    return inner_->GenerateBatch(requests);
  }
  tsg::StatusOr<tsg::core::MethodSnapshot> Snapshot() const override {
    return inner_->Snapshot();
  }
  tsg::Status Restore(const tsg::core::MethodSnapshot& snapshot) override {
    return inner_->Restore(snapshot);
  }
  uint64_t HyperparameterDigest() const override {
    return inner_->HyperparameterDigest();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<tsg::core::TsgMethod> inner_;
  GridTrace* trace_;
  const int64_t request_;
};

void RegisterTracedMethods() {
  static std::once_flag once;
  std::call_once(once, [] {
    for (const std::string& name : tsg::methods::AllMethodNames()) {
      tsg::methods::RegisterMethod(kTracedPrefix + name, [name] {
        auto inner = tsg::methods::CreateMethod(name);
        TSG_CHECK(inner.ok()) << inner.status().ToString();
        return std::make_unique<TracedMethod>(std::move(inner).value(), g_grid_trace);
      });
    }
  });
}

int64_t CounterValue(const char* name) {
  return tsg::obs::MetricRegistry::Global().GetCounter(name).value();
}

/// Parses a grid summary's cells into `scores`; false when unreadable.
bool ReadSummary(const std::string& path, CellScores* scores, int64_t* cells) {
  const auto text = tsg::io::ReadFileToString(path);
  if (!text.ok()) return false;
  const auto doc = tsg::io::JsonValue::Parse(text.value());
  if (!doc.ok()) return false;
  const tsg::io::JsonValue* list = doc.value().Find("cells");
  if (list == nullptr) return false;
  for (const tsg::io::JsonValue& cell : list->array_items()) {
    ++*cells;
    std::string method = cell.GetString("method", "");
    if (method.rfind(kTracedPrefix, 0) == 0) method.erase(0, std::strlen(kTracedPrefix));
    auto& row = (*scores)[method + "/" + cell.GetString("dataset", "")];
    const tsg::io::JsonValue* s = cell.Find("scores");
    if (s == nullptr) continue;
    for (const auto& [measure, v] : s->object_items()) {
      row[measure] = {v.GetNumber("mean", NAN), v.GetNumber("stddev", NAN)};
    }
  }
  return true;
}

/// One cold half grid under `dir` (fresh out dir; the store, empty at the
/// start of the run, never holds the half's models): half 0 runs the ten
/// methods on Stock, half 1 the four on StockLong. Adds to `grid`.
void RunColdHalf(Context& ctx, const std::string& dir, bool traced, int half,
                 GridPass* grid) {
  const std::string prefix = traced ? kTracedPrefix : "";
  const bool stock = half == 0;
  std::vector<std::string> methods;
  for (const std::string& m : stock ? tsg::methods::AllMethodNames() : LongMethods()) {
    methods.push_back(prefix + m);
  }
  tsg::bench::BenchConfig config = ctx.config;
  config.out_dir = dir + (stock ? "/stock" : "/long");
  config.store_dir = dir + "/store";
  std::filesystem::create_directories(config.out_dir);

  const int64_t resumed0 = CounterValue("grid.cells.resumed");
  const int64_t restored0 = CounterValue("harness.store.restored");
  int64_t failed = 0;
  if (!traced) ctx.StartTimedPhase();
  {
    ScopedSpan span(traced ? ctx.spans : nullptr, "grid.run");
    const auto result = tsg::bench::RunGrid(
        config, methods, {stock ? DatasetId::kStock : DatasetId::kStockLong});
    grid->seconds += span.Elapsed();
    failed = static_cast<int64_t>(result.failures.size());
  }
  if (!traced) ctx.EndTimedPhase();
  int64_t cells = 0;
  const bool read =
      ReadSummary(tsg::bench::GridSummaryPath(config), &grid->scores, &cells);
  const std::string label = std::string(traced ? "traced grid" : "grid") +
                            (stock ? " (Stock)" : " (StockLong)");
  ctx.report->Check(read, label + ": summary readable");
  ctx.report->Check(failed == 0,
                    label + ": no failed cell (" + std::to_string(failed) + " failed)");
  ctx.report->Check(cells == static_cast<int64_t>(methods.size()),
                    label + ": every cell in the summary");
  ctx.report->Check(CounterValue("grid.cells.resumed") == resumed0,
                    label + ": grid.cells.resumed is 0 (cold)");
  ctx.report->Check(CounterValue("harness.store.restored") == restored0,
                    label + ": harness.store.restored is 0 (cold)");
  ctx.report->Ops(static_cast<int64_t>(methods.size()), failed);
  grid->cells += cells;
  grid->failed += failed;
}

double TimerSum(const std::string& name) {
  return tsg::obs::MetricRegistry::Global().GetTimer(name).sum();
}

/// Per-layer grid metrics: the traced pass's spans and measure timers, plus
/// direct timed calls on the grid's own inputs (data preparation, embedder
/// fit, artifact save).
void TracedGrid(Context& ctx, const GridPass& untraced) {
  Report& report = *ctx.report;
  GridTrace trace;
  trace.log = ctx.spans;
  g_grid_trace = &trace;
  RegisterTracedMethods();

  static const char* kMeasures[] = {"DS", "PS", "C-FID", "MDD", "ACD",
                                    "SD", "KD", "ED",    "DTW"};
  std::map<std::string, double> measure0;
  for (const char* m : kMeasures) {
    measure0[m] = TimerSum(std::string("measure.") + m + ".seconds");
  }
  const size_t first_span = ctx.spans->spans().size();
  const std::string dir = ctx.run_dir + "/grid_traced";
  GridPass traced;
  for (int half = 0; half < 2; ++half) {
    RunColdHalf(ctx, dir, /*traced=*/true, half, &traced);
  }
  g_grid_trace = nullptr;

  report.Check(traced.scores == untraced.scores,
               "traced grid: per-cell scores equal the untraced grid summary");
  report.Set("trace.overhead_pct.grid_s",
             100.0 * (traced.seconds - untraced.seconds) / untraced.seconds, 1,
             "traced " + std::to_string(traced.seconds) + " s vs untraced " +
                 std::to_string(untraced.seconds) + " s");

  std::map<std::string, double> fit_s;
  std::map<std::string, int64_t> fits;
  double generate_s = 0.0;
  int64_t generates = 0;
  const std::vector<Span> spans = ctx.spans->spans();
  for (size_t i = first_span; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name.rfind("methods.fit.", 0) == 0) {
      fit_s[s.name.substr(12)] += s.duration_s();
      ++fits[s.name.substr(12)];
    } else if (s.name.rfind("methods.generate.", 0) == 0) {
      generate_s += s.duration_s();
      ++generates;
    }
  }
  for (const std::string& m : tsg::methods::AllMethodNames()) {
    report.Set("methods.fit_s." + m, fit_s[m], fits[m],
               fits[m] > 1 ? "Stock + StockLong cells" : "Stock cell");
    report.Set("ag.nodes_per_step." + m, trace.nodes_per_step[m], 1, "Stock cell");
  }
  report.Set("methods.generate_s", generate_s, generates, "all cells");
  for (const char* m : kMeasures) {
    report.Set(std::string("core.measure_s.") + m,
               TimerSum(std::string("measure.") + m + ".seconds") - measure0[m], 14,
               "sum over cells");
  }

  // Direct timed calls on the grid's inputs, outside the grid's own timing.
  double prepare_s = 0.0;
  double embedder_s = 0.0;
  std::vector<double> save_ms;
  tsg::core::Harness harness(tsg::bench::GridHarnessOptions(ctx.config));
  tsg::store::ArtifactStore grid_store(dir + "/store");
  tsg::store::ArtifactStore probe_store(dir + "/save_probe");
  for (const DatasetId id : {DatasetId::kStock, DatasetId::kStockLong}) {
    tsg::core::Preprocessed pre;
    {
      ScopedSpan span(ctx.spans, "data.prepare");
      pre = tsg::bench::PrepareDataset(id, ctx.config);
      prepare_s += span.Elapsed();
    }
    {
      const int64_t count =
          std::min(harness.options().max_eval_samples, pre.train.num_samples());
      ScopedSpan span(ctx.spans, "core.embedder_fit");
      const auto embedder = harness.GetEmbedder(pre.train.name(), pre.train.Head(count));
      embedder_s += span.Elapsed();
      report.Check(embedder.ok(), "embedder fit on " + pre.train.name());
    }
    const std::vector<std::string>& methods =
        id == DatasetId::kStock ? tsg::methods::AllMethodNames() : LongMethods();
    for (const std::string& m : methods) {
      auto method = tsg::methods::CreateMethod(m);
      TSG_CHECK(method.ok());
      const tsg::core::ModelKey key =
          ModelKeyFor(*method.value(), pre, harness.options());
      const auto snapshot = grid_store.Load(key);
      report.Check(snapshot.ok(), "traced grid stored " + m + "/" + pre.train.name());
      if (!snapshot.ok()) continue;
      ScopedSpan span(ctx.spans, "store.save");
      const tsg::Status saved = probe_store.Save(key, snapshot.value());
      save_ms.push_back(span.Elapsed() * 1e3);
      report.Check(saved.ok(), "artifact save " + m);
    }
  }
  report.Set("data.prepare_s", prepare_s, 2, "Stock + StockLong");
  report.Set("core.embedder_fit_s", embedder_s, 2, "Stock + StockLong");
  report.Set("store.save_ms", save_ms.empty() ? 0.0 : Median(save_ms),
             static_cast<int64_t>(save_ms.size()), "median per artifact");
}

}  // namespace

void RunGridHalf(Context& ctx, int half, GridPass* grid) {
  RunColdHalf(ctx, ctx.run_dir + "/grid", /*traced=*/false, half, grid);
}

void FinishGrid(Context& ctx, const GridPass& grid) {
  ctx.report->Set("grid_s", grid.seconds, 1,
                  "10 methods x Stock + 4 methods x StockLong, in two halves");
  if (ctx.spans != nullptr) TracedGrid(ctx, grid);
}

}  // namespace perfbench
