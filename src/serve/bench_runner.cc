#include "serve/bench_runner.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <utility>
#include <vector>

#include "base/fnv.h"
#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "io/atomic_file.h"
#include "io/json.h"
#include "methods/factory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "streameval/stream_evaluator.h"

namespace tsg::serve {

namespace {

obs::Counter& ServeCounter(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name);
}

std::string HexU64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Order- and layout-pinned digest of a generated batch: per block, per series,
/// shape then row-major values. Equal bytes in, equal digest out — the CI
/// smoke test compares this across daemon restarts and against a cold restore.
uint64_t DigestGenerated(
    const std::vector<std::vector<linalg::Matrix>>& blocks) {
  base::Fnv64 fnv;
  for (const auto& block : blocks) {
    fnv.U64(block.size());
    for (const linalg::Matrix& series : block) {
      fnv.I64(series.rows()).I64(series.cols());
      fnv.Bytes(series.data(),
                static_cast<size_t>(series.size()) * sizeof(double));
    }
  }
  return fnv.digest();
}

std::string JoinCsv(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ",";
    out += item;
  }
  return out;
}

}  // namespace

BenchJobRunner::BenchJobRunner(bench::BenchConfig config)
    : config_(std::move(config)) {
  store_ = std::make_unique<store::ArtifactStore>(config_.store_dir);
  cache_ = std::make_unique<store::ServingCache>(store_.get());
  core::HarnessOptions options = bench::GridHarnessOptions(config_);
  options.store = store_.get();
  harness_ = std::make_unique<core::Harness>(options);
}

StatusOr<const core::Preprocessed*> BenchJobRunner::GetDataset(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  auto it = datasets_.find(name);
  if (it != datasets_.end()) {
    const core::Preprocessed* cached = it->second.get();
    return cached;
  }
  TSG_ASSIGN_OR_RETURN(const data::DatasetId id, bench::ParseDatasetName(name));
  const obs::ScopedTimer prepare_span("serve.prepare_dataset");
  auto pre = std::make_unique<core::Preprocessed>(
      bench::PrepareDataset(id, config_));
  const core::Preprocessed* raw = pre.get();
  datasets_.emplace(name, std::move(pre));
  return raw;
}

StatusOr<core::ModelKey> BenchJobRunner::KeyFor(const std::string& method,
                                                const std::string& dataset,
                                                const core::Preprocessed& pre) {
  std::lock_guard<std::mutex> lock(datasets_mu_);
  auto it = keys_.find({method, dataset});
  if (it != keys_.end()) return it->second;
  TSG_ASSIGN_OR_RETURN(const std::unique_ptr<core::TsgMethod> instance,
                       methods::CreateMethod(method));
  const core::ModelKey key =
      core::ModelKey::For(*instance, pre.train, harness_->options().fit);
  keys_.emplace(std::make_pair(method, dataset), key);
  return key;
}

StatusOr<std::string> BenchJobRunner::Run(
    const JobSpec& spec, const std::function<bool()>& should_stop) {
  // Jobs run on pool workers; the guard keeps their inner loops off the pool
  // (see ParallelRegionGuard) so concurrent jobs cannot deadlock it.
  const base::ParallelRegionGuard serial_guard;
  const obs::ScopedTimer job_span("serve.job");
  switch (spec.kind) {
    case JobKind::kFit: return RunFit(spec);
    case JobKind::kGenerate: return RunGenerate(spec);
    case JobKind::kEvaluate: return RunEvaluate(spec);
    case JobKind::kGrid: return RunGridJob(spec, should_stop);
    case JobKind::kStreamEval: return RunStreamEval(spec, should_stop);
  }
  return Status::Internal("unhandled job kind");
}

StatusOr<core::FitOutcome> BenchJobRunner::EnsureFitted(const std::string& method_name,
                                                         const core::Preprocessed& pre,
                                                         const core::ModelKey& key) {
  // A resident model was verified when the serving cache restored it, so one
  // stat that its artifact is still published stands in for a full Load. A
  // published model that is not resident is restored into the serving cache,
  // which keeps it for the job's generation. A deleted artifact falls through
  // and is retrained and republished.
  std::error_code ec;
  if (std::filesystem::exists(store_->PathFor(key), ec) &&
      (cache_->Holds(key) || cache_->GetMethod(key).ok())) {
    return core::FitOutcome{};
  }
  // Otherwise the harness's own fit-or-restore path: an artifact counts only
  // once it restores, and a fresh fit is published with the grid's options, so
  // the artifact is byte-identical to one a grid cell would write.
  TSG_ASSIGN_OR_RETURN(const std::unique_ptr<core::TsgMethod> method,
                       methods::CreateMethod(method_name));
  TSG_ASSIGN_OR_RETURN(core::FitOutcome fit, harness_->FitOrRestore(*method, pre.train));
  TSG_RETURN_IF_ERROR(fit.published);
  return fit;
}

StatusOr<std::string> BenchJobRunner::RunFit(const JobSpec& spec) {
  ServeCounter("serve.jobs.fit").Add();
  TSG_ASSIGN_OR_RETURN(const core::Preprocessed* pre, GetDataset(spec.dataset));
  TSG_ASSIGN_OR_RETURN(const core::ModelKey key, KeyFor(spec.method, spec.dataset, *pre));
  TSG_ASSIGN_OR_RETURN(const core::FitOutcome fit, EnsureFitted(spec.method, *pre, key));
  io::JsonWriter json;
  json.BeginObject();
  json.Key("model").String(HexU64(store::ArtifactStore::KeyAddress(key)));
  json.Key("path").String(store_->PathFor(key));
  json.Key("trained").Bool(fit.trained);
  json.Key("fit_seconds").Number(fit.fit_seconds);
  json.EndObject();
  return RawMembers(json);
}

StatusOr<std::string> BenchJobRunner::RunGenerate(const JobSpec& spec) {
  ServeCounter("serve.jobs.generate").Add();
  TSG_ASSIGN_OR_RETURN(const core::Preprocessed* pre, GetDataset(spec.dataset));
  TSG_ASSIGN_OR_RETURN(const core::ModelKey key, KeyFor(spec.method, spec.dataset, *pre));
  std::vector<core::GenRequest> requests(1);
  requests[0].count = spec.count;
  requests[0].seed = spec.gen_seed;
  TSG_ASSIGN_OR_RETURN(const std::vector<std::vector<linalg::Matrix>> blocks,
                       cache_->Generate(key, requests));
  int64_t series = 0;
  for (const auto& block : blocks) series += static_cast<int64_t>(block.size());
  io::JsonWriter json;
  json.BeginObject();
  json.Key("count").Int(series);
  json.Key("digest").String(HexU64(DigestGenerated(blocks)));
  json.EndObject();
  return RawMembers(json);
}

StatusOr<std::string> BenchJobRunner::RunEvaluate(const JobSpec& spec) {
  ServeCounter("serve.jobs.evaluate").Add();
  TSG_ASSIGN_OR_RETURN(const core::Preprocessed* pre, GetDataset(spec.dataset));
  TSG_ASSIGN_OR_RETURN(const std::unique_ptr<core::TsgMethod> method,
                       methods::CreateMethod(spec.method));
  TSG_ASSIGN_OR_RETURN(core::MethodRunResult result,
                       harness_->RunMethod(*method, pre->train, pre->test));
  // The grid cell's record, which names the method by its registry name.
  result.method = spec.method;
  io::JsonWriter json;
  bench::WriteCellJson(result, /*with_fit_seconds=*/true, &json);
  return RawMembers(json);
}

StatusOr<std::string> BenchJobRunner::RunGridJob(
    const JobSpec& spec, const std::function<bool()>& should_stop) {
  ServeCounter("serve.jobs.grid").Add();
  TSG_ASSIGN_OR_RETURN(const std::vector<std::string> methods,
                       bench::ParseMethodList(JoinCsv(spec.methods)));
  TSG_ASSIGN_OR_RETURN(const std::vector<data::DatasetId> datasets,
                       bench::ParseDatasetList(JoinCsv(spec.datasets)));
  bench::ShardOptions options;
  options.should_stop = should_stop;
  TSG_ASSIGN_OR_RETURN(const bench::GridResult grid,
                       bench::RunGridShard(config_, methods, datasets, options));
  const std::string summary_path = bench::GridSummaryPath(config_);
  TSG_ASSIGN_OR_RETURN(const std::string summary,
                       io::ReadFileToString(summary_path));
  io::JsonWriter json;
  json.BeginObject();
  json.Key("summary").String(summary_path);
  json.Key("digest").String(
      HexU64(base::Fnv64Bytes(summary.data(), summary.size())));
  int64_t rows = 0;  // (cell, measure) scores.
  for (const auto& cell : grid.cells) rows += static_cast<int64_t>(cell.scores.size());
  json.Key("rows").Int(rows);
  json.Key("failed").Int(static_cast<int64_t>(grid.failures.size()));
  json.Key("computed").Int(grid.computed);
  json.EndObject();
  return RawMembers(json);
}

StatusOr<std::string> BenchJobRunner::RunStreamEval(
    const JobSpec& spec, const std::function<bool()>& should_stop) {
  ServeCounter("serve.jobs.stream_eval").Add();
  TSG_ASSIGN_OR_RETURN(const core::Preprocessed* pre, GetDataset(spec.dataset));
  TSG_ASSIGN_OR_RETURN(const core::ModelKey key, KeyFor(spec.method, spec.dataset, *pre));
  TSG_ASSIGN_OR_RETURN(const core::FitOutcome fit, EnsureFitted(spec.method, *pre, key));

  // Chunk b is Generate(count, Rng(gen_seed + b)) on the served model, so a
  // given (spec, chunk) pair always streams identical series no matter which
  // daemon serves it or which thread generates it.
  using Chunk = StatusOr<std::vector<std::vector<linalg::Matrix>>>;
  const auto generate = [this, &key, &spec](uint64_t b, int64_t count) -> Chunk {
    std::vector<core::GenRequest> requests(1);
    requests[0].count = count;
    requests[0].seed = spec.gen_seed + b;
    return cache_->Generate(key, requests);
  };
  // A lookahead of one chunk: while the evaluator scores chunk b, an idle pool
  // worker may generate chunk b + 1, which `next` (`next_count` series) holds
  // until the loop takes it. The depth is fixed at one: while a chunk's
  // generation outlasts its Update the loop waits on that worker anyway, and
  // each deeper chunk would hold another of the workers jobs run on.
  std::optional<base::Lookahead<Chunk>> next;
  int64_t next_count = 0;
  const auto offer = [&](uint64_t b, int64_t count) {
    next_count = count;
    next.emplace(base::ThreadPool::Global(),
                 [&generate, b, count] { return generate(b, count); });
  };
  int64_t remaining = spec.count;
  if (remaining > 0) offer(0, std::min<int64_t>(spec.chunk, remaining));

  // The streaming reference is the training set — the same set the batch
  // harness hands the measures as ctx.real, so a full window scores series
  // against exactly what an evaluate job would.
  streameval::StreamEvalOptions options;
  options.window = spec.window;
  options.metric_prefix = "stream." + spec.tenant;
  TSG_ASSIGN_OR_RETURN(const std::unique_ptr<streameval::StreamEvaluator> eval,
                       streameval::StreamEvaluator::Create(pre->train, options));

  // On should_stop we shrink the next chunk to land exactly on a window
  // boundary, flush that last whole window, and report drained=true. A
  // draining job drops a lookahead of another size and offers no more.
  bool drained = false;
  uint64_t batch_index = 0;
  double generate_s = 0.0;  // Generation this job ran itself.
  double wait_s = 0.0;      // Blocked on a chunk a worker was generating.
  double update_s = 0.0;
  while (remaining > 0) {
    int64_t take = std::min<int64_t>(spec.chunk, remaining);
    if (should_stop != nullptr && should_stop()) {
      const int64_t partial = eval->series_seen() % spec.window;
      const int64_t to_boundary = partial == 0 ? 0 : spec.window - partial;
      take = std::min<int64_t>(take, to_boundary);
      drained = true;
      if (take != next_count) next.reset();
      if (take == 0) break;
    }
    const Stopwatch generate_watch;
    Chunk chunk = next.has_value() ? next->Take() : generate(batch_index, take);
    const bool worker_generated = next.has_value() && !next->ran_inline();
    (worker_generated ? wait_s : generate_s) += generate_watch.ElapsedSeconds();
    next.reset();
    TSG_ASSIGN_OR_RETURN(const std::vector<std::vector<linalg::Matrix>> blocks,
                         std::move(chunk));
    remaining -= take;
    ++batch_index;
    if (!drained && remaining > 0) {
      offer(batch_index, std::min<int64_t>(spec.chunk, remaining));
    }
    const Stopwatch update_watch;
    for (const auto& block : blocks) {
      TSG_RETURN_IF_ERROR(eval->Update(block));
    }
    update_s += update_watch.ElapsedSeconds();
    if (drained && eval->series_seen() % spec.window == 0) break;
  }
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  metrics.GetGauge(options.metric_prefix + ".generate_s").Set(generate_s);
  metrics.GetGauge(options.metric_prefix + ".wait_s").Set(wait_s);
  metrics.GetGauge(options.metric_prefix + ".update_s").Set(update_s);

  // Attest the exactness contract on whatever window the stream ended with
  // before handing scores back — a diverged snapshot fails the job.
  if (eval->window_size() > 0) {
    TSG_RETURN_IF_ERROR(eval->VerifyExactAgainstBatch());
  }

  io::JsonWriter json;
  json.BeginObject();
  json.Key("series").Int(eval->series_seen());
  json.Key("windows").Int(eval->windows_completed());
  json.Key("alarms").Int(eval->alarms_total());
  json.Key("drained").Bool(drained);
  json.Key("exact").Bool(true);
  json.Key("trained").Bool(fit.trained);
  json.Key("fit_seconds").Number(fit.fit_seconds);
  json.Key("scores").BeginObject();
  for (const auto& [measure, score] : eval->last_snapshot()) {
    json.Key(measure).Number(score);
  }
  json.EndObject();
  json.EndObject();
  return RawMembers(json);
}

}  // namespace tsg::serve
