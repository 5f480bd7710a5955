// stream_live: two tenants each run two back-to-back `stream_eval` jobs on
// StockLong (l = 125) while a third connection polls `metrics` at 20 Hz. The only
// section that runs src/streameval; it also sets per-tenant stream.* gauge
// writes beside registry snapshot reads.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "base/rng.h"
#include "context.h"
#include "loadgen.h"
#include "methods/factory.h"
#include "obs/metrics.h"
#include "stats.h"
#include "store/artifact_store.h"
#include "store/serving_cache.h"
#include "streameval/online_measures.h"
#include "streameval/stream_evaluator.h"

namespace perfbench {

namespace {

using tsg::Status;
using tsg::StatusOr;
using tsg::serve::JobKind;
using tsg::serve::JobSpec;

constexpr int64_t kStreamCount = 4096;
constexpr int64_t kWindow = 64;
constexpr int64_t kChunk = 16;
constexpr double kPollHz = 20.0;

/// The scores an in-process StreamEvaluator reports for one job: chunk b of
/// the stream is Generate(chunk, Rng(gen_seed + b)) on the restored model.
StatusOr<std::map<std::string, double>> ReferenceScores(const LocalModels& local,
                                                        const JobSpec& spec) {
  tsg::streameval::StreamEvalOptions options;
  options.window = spec.window;
  TSG_ASSIGN_OR_RETURN(
      auto eval, tsg::streameval::StreamEvaluator::Create(local.pre.train, options));
  const tsg::core::TsgMethod& method = *local.methods.at(spec.method);
  uint64_t b = 0;
  for (int64_t done = 0; done < spec.count; done += spec.chunk, ++b) {
    tsg::Rng rng(spec.gen_seed + b);
    const int64_t take = std::min(spec.chunk, spec.count - done);
    TSG_RETURN_IF_ERROR(eval->Update(method.Generate(take, rng)));
  }
  return eval->last_snapshot();
}

struct StreamPass {
  std::vector<LoadRequest> requests;
  std::vector<bool> poll;      ///< Per request: a metrics poll, else a stream.
  std::vector<JobSpec> specs;  ///< Per stream request (polls: unused).
  std::vector<int64_t> client_spans;
  int64_t series = 0;
  double seconds = 0.0;  ///< First submit to last stream result.
};

/// `jobs_per_tenant` back-to-back stream_eval jobs for each of the two
/// tenants, with metrics polls until the last returns; seeds drawn from
/// (run seed, `salt`). Marks results that are not exact or short as failed.
StreamPass StreamTraffic(Context& ctx, Daemon& daemon, TracingRunner* tracer,
                         int jobs_per_tenant, uint64_t salt) {
  StreamPass pass;
  std::vector<std::unique_ptr<LineClient>> clients;
  for (int c = 0; c < 3; ++c) {
    auto client = LineClient::Connect(daemon.socket_path());
    TSG_CHECK(client.ok()) << client.status().ToString();
    clients.push_back(std::move(client).value());
  }
  LoadGenerator gen({clients[0].get(), clients[1].get(), clients[2].get()});
  tsg::Rng seeds((ctx.seed * 8 + salt) ^ 0x57EA3ULL);
  const double t0 = NowSeconds() + 0.05;

  auto add_stream = [&](int conn, double at) {
    JobSpec spec;
    spec.kind = JobKind::kStreamEval;
    spec.tenant = "stream-" + StreamedLongMethods()[static_cast<size_t>(conn)];
    spec.method = StreamedLongMethods()[static_cast<size_t>(conn)];
    spec.dataset = "StockLong";
    spec.count = kStreamCount;
    spec.window = kWindow;
    spec.chunk = kChunk;
    spec.gen_seed = seeds.NextUint64() >> 33;
    LoadRequest r;
    r.conn = conn;
    r.line = SubmitLine(spec);
    pass.poll.push_back(false);
    pass.specs.push_back(spec);
    const int64_t client_span = tracer != nullptr ? ctx.spans->NextId() : -1;
    pass.client_spans.push_back(client_span);
    if (tracer != nullptr) {
      tracer->ExpectRequest(JobKind::kStreamEval, static_cast<int64_t>(spec.gen_seed),
                            client_span);
    }
    gen.Add(std::move(r), at);
  };
  add_stream(0, t0);
  add_stream(1, t0);
  // Polls run at a fixed rate until the last stream job returns.
  const double max_s = 120.0;
  for (int64_t k = 0; k < static_cast<int64_t>(max_s * kPollHz); ++k) {
    LoadRequest r;
    r.conn = 2;
    r.submit = false;
    r.line = CommandLine(tsg::serve::Request::Cmd::kMetrics);
    pass.poll.push_back(true);
    pass.specs.emplace_back();
    pass.client_spans.push_back(tracer != nullptr ? ctx.spans->NextId() : -1);
    gen.Add(std::move(r), t0 + static_cast<double>(k) / kPollHz);
  }

  double last_done = t0;
  int streams_done = 0;
  if (tracer == nullptr) ctx.StartTimedPhase();
  gen.Run(t0 + max_s, t0 + max_s, [&](size_t i) {
    LoadRequest& r = gen.requests()[i];
    if (pass.poll[i]) {
      if (r.record.ok && r.reply.Find("metrics") == nullptr) r.record.ok = false;
      return;
    }
    if (r.record.ok && (!r.reply.GetBool("exact", false) ||
                        r.reply.GetInt("series", -1) != kStreamCount)) {
      r.record.ok = false;
    }
    if (r.record.ok) pass.series += r.reply.GetInt("series", 0);
    last_done = std::max(last_done, r.record.done_s);
    // Back to back: the tenant's next job goes out as this one returns.
    const int tenant_jobs = static_cast<int>(
        std::count_if(pass.specs.begin(), pass.specs.end(), [&](const JobSpec& s) {
          return s.tenant == pass.specs[i].tenant;
        }));
    if (tenant_jobs < jobs_per_tenant) add_stream(r.conn, NowSeconds());
    if (++streams_done == 2 * jobs_per_tenant) gen.StopSending();
  });
  if (tracer == nullptr) ctx.EndTimedPhase();
  pass.requests = gen.requests();
  pass.seconds = last_done - t0;

  return pass;
}

/// Adds `pass` to `totals`: poll latencies, job counts, and the returned jobs
/// whose scores still need checking.
void Accumulate(const StreamPass& pass, StreamTotals* totals) {
  for (size_t i = 0; i < pass.requests.size(); ++i) {
    const LoadRequest& r = pass.requests[i];
    if (pass.poll[i]) {
      // Polls left unsent because the streams had finished are not requests.
      if (!r.record.sent) continue;
      totals->poll_ms.push_back(r.record.latency_ms());
      totals->polls_failed += r.record.ok ? 0 : 1;
      continue;
    }
    ++totals->jobs;
    if (!r.record.ok) {
      ++totals->jobs_failed;
      continue;
    }
    totals->done_jobs.push_back(pass.specs[i]);
    totals->done_replies.push_back(r.reply);
  }
  totals->series += pass.series;
  totals->seconds += pass.seconds;
}

/// Checks every returned job's scores against an in-process evaluator fed
/// the same chunks, then records the section's
/// checks and operations.
void CheckStreams(Context& ctx, const LocalModels& local, const StreamTotals& totals,
                  const std::string& label) {
  const size_t n = totals.done_jobs.size();
  std::vector<int> same(n, 0);
  ForEachInParallel(n, [&](size_t k) {
    const auto want = ReferenceScores(local, totals.done_jobs[k]);
    const tsg::io::JsonValue* got = totals.done_replies[k].Find("scores");
    bool ok = want.ok() && got != nullptr &&
              got->object_items().size() == want.value().size();
    if (ok) {
      for (const auto& [measure, v] : got->object_items()) {
        const auto it = want.value().find(measure);
        ok = ok && it != want.value().end() && v.number_value() == it->second;
      }
    }
    same[k] = ok ? 1 : 0;
  });
  const int64_t mismatched =
      static_cast<int64_t>(n) - std::count(same.begin(), same.end(), 1);
  const int64_t failed = totals.jobs_failed + mismatched;
  Report& report = *ctx.report;
  report.Check(failed == 0,
               label + ": every stream_eval result is exact and matches an in-process "
                       "StreamEvaluator (" + std::to_string(failed) + " of " +
                   std::to_string(totals.jobs) + " bad, " + std::to_string(mismatched) +
                   " score mismatches)");
  report.Check(totals.polls_failed == 0, label + ": every metrics poll answered");
  report.Ops(totals.jobs + static_cast<int64_t>(totals.poll_ms.size()),
             failed + totals.polls_failed);
}

/// Drives one state through the window protocol StreamEvaluator uses
/// (Update with the new items, Evict the displaced, Snapshot at each window
/// boundary) and returns its microseconds per series.
double StateMicrosPerSeries(tsg::streameval::OnlineMeasureState& state,
                            const std::vector<tsg::linalg::Matrix>& series,
                            SpanLog* log) {
  tsg::streameval::Window window;
  ScopedSpan span(log, "streameval.state." + state.name());
  for (size_t next = 0; next < series.size(); next += kChunk) {
    const size_t first = window.size();
    for (size_t k = next; k < next + kChunk && k < series.size(); ++k) {
      window.push_back({series[k], static_cast<int64_t>(k)});
    }
    std::vector<const tsg::streameval::WindowItem*> fresh;
    for (size_t w = first; w < window.size(); ++w) fresh.push_back(&window[w]);
    TSG_CHECK(state.Update(fresh).ok());
    while (static_cast<int64_t>(window.size()) > kWindow) {
      TSG_CHECK(state.Evict(window.front()).ok());
      window.pop_front();
    }
    if ((next + kChunk) % kWindow == 0) (void)state.Snapshot(window);
  }
  return span.Elapsed() * 1e6 / static_cast<double>(series.size());
}

/// Per-layer stream metrics: a traced pass through the traced daemon, and
/// direct timed calls on the pass's first stream.
void TracedStream(Context& ctx, ServingSetup& traced_setup, const LocalModels& local,
                  const StreamTotals& untraced) {
  Report& report = *ctx.report;
  const StreamPass traced =
      StreamTraffic(ctx, *traced_setup.daemon, traced_setup.daemon->tracer(),
                    /*jobs_per_tenant=*/2, /*salt=*/2);
  StreamTotals traced_totals;
  Accumulate(traced, &traced_totals);
  CheckStreams(ctx, local, traced_totals, "traced stream");
  for (size_t i = 0; i < traced.requests.size(); ++i) {
    const LoadRequest& r = traced.requests[i];
    if (!r.record.sent) continue;
    Span span;
    span.id = traced.client_spans[i];
    span.request = traced.poll[i] ? -1 : static_cast<int64_t>(traced.specs[i].gen_seed);
    span.name = traced.poll[i] ? "client.metrics" : "client.stream_eval";
    span.start_s = r.record.scheduled_s;
    span.end_s = r.record.completed ? r.record.done_s : r.record.scheduled_s;
    ctx.spans->Record(std::move(span));
  }
  const double untraced_rate = static_cast<double>(untraced.series) / untraced.seconds;
  const double traced_rate =
      static_cast<double>(traced_totals.series) / traced_totals.seconds;
  report.Set("trace.overhead_pct.stream_series_per_s",
             100.0 * (untraced_rate - traced_rate) / untraced_rate, 1,
             "throughput lost: traced " + std::to_string(traced_rate) + " vs untraced " +
                 std::to_string(untraced_rate) + " series/s");

  // The first stream of the untraced run, regenerated through a serving
  // cache of our own, chunk by chunk as the runner does.
  const JobSpec& spec = untraced.first_job;
  tsg::store::ArtifactStore store(traced_setup.store_dir);
  tsg::store::ServingCache cache(&store);
  const tsg::core::ModelKey& key = local.keys.at(spec.method);
  (void)cache.Generate(key, {{kChunk, spec.gen_seed}});
  std::vector<tsg::linalg::Matrix> series;
  std::vector<double> chunk_ms;
  for (uint64_t b = 0; static_cast<int64_t>(series.size()) < kStreamCount; ++b) {
    ScopedSpan span(ctx.spans, "store.serving_generate");
    auto blocks = cache.Generate(key, {{kChunk, spec.gen_seed + b}});
    chunk_ms.push_back(span.Elapsed() * 1e3);
    TSG_CHECK(blocks.ok());
    for (auto& m : blocks.value().front()) series.push_back(std::move(m));
  }
  report.Set("store.serving_generate_ms_per_chunk", Median(chunk_ms),
             static_cast<int64_t>(chunk_ms.size()), "ServingCache::Generate, count 16");

  tsg::streameval::StreamEvalOptions options;
  options.window = kWindow;
  auto eval = tsg::streameval::StreamEvaluator::Create(local.pre.train, options);
  TSG_CHECK(eval.ok());
  std::vector<double> window_ms;
  double acc_ms = 0.0;
  for (size_t next = 0; next < series.size(); next += kChunk) {
    const std::vector<tsg::linalg::Matrix> chunk(series.begin() + next,
                                                 series.begin() + next + kChunk);
    ScopedSpan span(ctx.spans, "streameval.update");
    TSG_CHECK(eval.value()->Update(chunk).ok());
    acc_ms += span.Elapsed() * 1e3;
    if ((next + kChunk) % kWindow == 0) {
      window_ms.push_back(acc_ms);
      acc_ms = 0.0;
    }
  }
  report.Set("streameval.update_ms_per_window", Median(window_ms),
             static_cast<int64_t>(window_ms.size()),
             "StreamEvaluator::Update, window 64");
  std::vector<double> verify_ms;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span(ctx.spans, "streameval.verify");
    report.Check(eval.value()->VerifyExactAgainstBatch().ok(),
                 "direct VerifyExactAgainstBatch");
    verify_ms.push_back(span.Elapsed() * 1e3);
  }
  report.Set("streameval.verify_ms", Median(verify_ms), 3, "VerifyExactAgainstBatch");

  // Each public online state alone, over the first 16 windows of the stream.
  const auto reference = std::make_shared<const tsg::core::Dataset>(local.pre.train);
  const std::vector<tsg::linalg::Matrix> head(series.begin(),
                                              series.begin() + 16 * kWindow);
  std::vector<std::unique_ptr<tsg::streameval::OnlineMeasureState>> states;
  namespace se = tsg::streameval;
  using Moments = se::OnlineMomentsDiff;
  states.push_back(std::make_unique<se::OnlineEuclidean>(reference));
  states.push_back(std::make_unique<se::OnlineDtw>(reference));
  states.push_back(std::make_unique<se::OnlineMdd>(reference));
  states.push_back(std::make_unique<se::OnlineAcd>(reference));
  states.push_back(std::make_unique<Moments>(reference, Moments::Kind::kSkewness));
  states.push_back(std::make_unique<Moments>(reference, Moments::Kind::kKurtosis));
  states.push_back(std::make_unique<se::OnlineMmd>(reference));
  states.push_back(std::make_unique<se::OnlineFeatureGaussian>(reference));
  for (auto& state : states) {
    report.Set("streameval.state_us." + state->name(),
               StateMicrosPerSeries(*state, head, ctx.spans),
               static_cast<int64_t>(head.size()), "per series, incl. window snapshots");
  }

  std::vector<double> snapshot_ms;
  size_t bytes = 0;
  for (int rep = 0; rep < 20; ++rep) {
    ScopedSpan span(ctx.spans, "obs.snapshot");
    bytes = tsg::obs::MetricRegistry::Global().SnapshotJson(true).size();
    snapshot_ms.push_back(span.Elapsed() * 1e3);
  }
  report.Set("obs.snapshot_ms", Median(snapshot_ms), 20, "MetricRegistry::SnapshotJson");
  report.Set("obs.snapshot_bytes", static_cast<double>(bytes), 1, "snapshot size");
}

}  // namespace

void RunStreamHalf(Context& ctx, Daemon& daemon, int half, StreamTotals* stream) {
  const StreamPass pass = StreamTraffic(ctx, daemon, nullptr, /*jobs_per_tenant=*/1,
                                        static_cast<uint64_t>(half));
  if (half == 0) stream->first_job = pass.specs.front();
  Accumulate(pass, stream);
}

void FinishStream(Context& ctx, ServingSetup* traced, const LocalModels& long_models,
                  const StreamTotals& stream) {
  Report& report = *ctx.report;
  CheckStreams(ctx, long_models, stream, "stream");
  report.Set("stream_series_per_s", static_cast<double>(stream.series) / stream.seconds,
             stream.series, "both tenants, series in completed jobs");
  report.Set("metrics_p50_ms", Median(stream.poll_ms),
             static_cast<int64_t>(stream.poll_ms.size()), "from scheduled send");
  if (ctx.spans != nullptr) TracedStream(ctx, *traced, long_models, stream);
}

}  // namespace perfbench
