// Daemon set-up and aging (shared by serve_mixed and stream_live) and
// serve_mixed: an in-process tsgd under open-loop traffic from three tenants,
// with warm `generate`, store-hit `fit` and store-hit `evaluate` requests.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include "base/fnv.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "context.h"
#include "loadgen.h"
#include "methods/factory.h"
#include "obs/metrics.h"
#include "stats.h"
#include "store/artifact_store.h"
#include "store/serving_cache.h"

namespace perfbench {

using tsg::Status;
using tsg::StatusOr;
using tsg::serve::JobKind;
using tsg::serve::JobSpec;

const std::vector<std::string>& ServedStockMethods() {
  static const auto* kMethods =
      new std::vector<std::string>{"TimeVAE", "RGAN", "LS4", "TimeGAN"};
  return *kMethods;
}

const std::vector<std::string>& StreamedLongMethods() {
  static const auto* kMethods = new std::vector<std::string>{"TimeVAE", "RGAN"};
  return *kMethods;
}

namespace {

constexpr int64_t kGenCount = 16;
constexpr double kGenRate = 60.0;   // Warm `generate` arrivals per second.
constexpr double kFitRate = 10.0;   // Store-hit `fit` arrivals per second.
constexpr double kEvalRate = 1.0;   // Store-hit `evaluate` arrivals per second.
constexpr int kAgeDepth = 4;        // Requests each aging tenant keeps in flight.

JobSpec Spec(JobKind kind, const std::string& tenant, const std::string& method,
             const std::string& dataset) {
  JobSpec spec;
  spec.kind = kind;
  spec.tenant = tenant;
  spec.method = method;
  spec.dataset = dataset;
  return spec;
}

}  // namespace

StatusOr<ServingSetup> SetUpServing(const Context& ctx, const std::string& dir,
                                    const std::string& store_dir, bool train,
                                    SpanLog* spans) {
  ServingSetup setup;
  setup.store_dir = store_dir;
  tsg::bench::BenchConfig config = ctx.config;
  config.out_dir = dir + "/out";
  config.store_dir = store_dir;
  std::filesystem::create_directories(config.out_dir);

  TSG_ASSIGN_OR_RETURN(setup.daemon, Daemon::Start(config, dir + "/tsgd.sock", spans));
  TSG_ASSIGN_OR_RETURN(auto client, LineClient::Connect(setup.daemon->socket_path()));

  // Store training through `fit` jobs, one tenant per model so three train at
  // once (max_inflight = 3, one running job per tenant).
  // The slower l = 125 fits go first.
  std::vector<JobSpec> fits;
  for (const std::string& m : StreamedLongMethods()) {
    fits.push_back(Spec(JobKind::kFit, "setup-" + m + "-StockLong", m, "StockLong"));
  }
  for (const std::string& m : ServedStockMethods()) {
    fits.push_back(Spec(JobKind::kFit, "setup-" + m + "-Stock", m, "Stock"));
  }
  std::vector<int64_t> jobs;
  for (const JobSpec& spec : fits) {
    TSG_ASSIGN_OR_RETURN(const tsg::io::JsonValue ack, client->Call(SubmitLine(spec)));
    if (!ack.GetBool("ok", false)) return Status::Internal("set-up fit refused");
    jobs.push_back(ack.GetInt("job", -1));
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    TSG_ASSIGN_OR_RETURN(const tsg::io::JsonValue reply, client->Call(WaitLine(jobs[i])));
    if (!reply.GetBool("ok", false)) {
      return Status::Internal("set-up fit of " + fits[i].method + " failed: " +
                              reply.GetString("error", "?"));
    }
    if (reply.GetBool("trained", !train) != train) {
      return Status::Internal("set-up fit of " + fits[i].method +
                              (train ? " did not train on an empty store"
                                     : " trained although the store holds it"));
    }
  }

  // Warm-up: every model into the serving cache, and one evaluate so the
  // harness has fitted the Stock embedder before the timed phase.
  for (const JobSpec& fit : fits) {
    JobSpec spec = Spec(JobKind::kGenerate, "setup", fit.method, fit.dataset);
    spec.count = kGenCount;
    TSG_RETURN_IF_ERROR(SubmitAndWait(*client, spec).status());
  }
  TSG_RETURN_IF_ERROR(
      SubmitAndWait(*client, Spec(JobKind::kEvaluate, "setup", ServedStockMethods()[0],
                                  "Stock"))
          .status());
  return setup;
}

tsg::core::ModelKey ModelKeyFor(const tsg::core::TsgMethod& method,
                                const tsg::core::Preprocessed& pre,
                                const tsg::core::HarnessOptions& options) {
  tsg::core::ModelKey key;
  key.method = method.name();
  key.hyper_digest = method.HyperparameterDigest();
  key.dataset_fingerprint = pre.train.Fingerprint();
  key.seed = options.fit.seed;
  key.epoch_scale = options.fit.epoch_scale;
  key.batch_size = options.fit.batch_size;
  return key;
}

StatusOr<std::unique_ptr<LocalModels>> LoadLocalModels(
    const Context& ctx, const std::string& store_dir, tsg::data::DatasetId dataset,
    const std::vector<std::string>& names) {
  auto local = std::make_unique<LocalModels>();
  local->pre = tsg::bench::PrepareDataset(dataset, ctx.config);
  local->options = tsg::bench::GridHarnessOptions(ctx.config);
  tsg::store::ArtifactStore store(store_dir);
  for (const std::string& m : names) {
    TSG_ASSIGN_OR_RETURN(auto method, tsg::methods::CreateMethod(m));
    const tsg::core::ModelKey key = ModelKeyFor(*method, local->pre, local->options);
    TSG_ASSIGN_OR_RETURN(const tsg::core::MethodSnapshot snapshot, store.Load(key));
    TSG_RETURN_IF_ERROR(method->Restore(snapshot));
    local->keys[m] = key;
    local->methods[m] = std::move(method);
  }
  return local;
}

namespace {

/// The digest a `generate` reply carries for one request: FNV-64 over the
/// series count, then per series its shape and row-major values
/// (serve/bench_runner.h).
std::string DigestOf(const std::vector<tsg::linalg::Matrix>& block) {
  tsg::base::Fnv64 fnv;
  fnv.U64(block.size());
  for (const tsg::linalg::Matrix& series : block) {
    fnv.I64(series.rows()).I64(series.cols());
    fnv.Bytes(series.data(), static_cast<size_t>(series.size()) * sizeof(double));
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv.digest()));
  return buf;
}

}  // namespace

void ForEachInParallel(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      // Keep the checks' inner loops off the shared pool.
      const tsg::base::ParallelRegionGuard serial;
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : workers) t.join();
}

double AgeDaemon(Context& ctx, Daemon& daemon, const LocalModels& stock, uint64_t salt) {
  const int64_t jobs = ctx.workload->aged_jobs;
  const double start = NowSeconds();
  std::vector<std::unique_ptr<LineClient>> clients;
  for (int c = 0; c < 3; ++c) {
    auto client = LineClient::Connect(daemon.socket_path());
    TSG_CHECK(client.ok()) << client.status().ToString();
    clients.push_back(std::move(client).value());
  }
  LoadGenerator gen({clients[0].get(), clients[1].get(), clients[2].get()});
  tsg::Rng seeds((ctx.seed * 8 + salt) ^ 0xA6EDULL);
  const std::vector<std::string>& models = ServedStockMethods();
  std::vector<JobSpec> specs;
  auto add = [&](int conn) {
    JobSpec spec = Spec(JobKind::kGenerate, "age-" + std::to_string(conn),
                        models[specs.size() % models.size()], "Stock");
    spec.count = kGenCount;
    spec.gen_seed = seeds.NextUint64() >> 33;
    LoadRequest r;
    r.conn = conn;
    r.line = SubmitLine(spec);
    specs.push_back(spec);
    gen.Add(std::move(r), NowSeconds());
  };
  // Closed loop: each tenant keeps kAgeDepth requests in flight.
  for (int k = 0; k < 3 * kAgeDepth && static_cast<int64_t>(specs.size()) < jobs; ++k) {
    add(k % 3);
  }
  const double give_up = NowSeconds() + 150.0;
  gen.Run(give_up, give_up, [&](size_t i) {
    const int conn = gen.requests()[i].conn;
    if (static_cast<int64_t>(specs.size()) < jobs) add(conn);
  });

  const std::vector<LoadRequest>& requests = gen.requests();
  std::vector<char> bad(requests.size(), 1);
  ForEachInParallel(requests.size(), [&](size_t i) {
    const LoadRequest& r = requests[i];
    if (!r.record.ok || r.reply.GetInt("count", -1) != kGenCount) return;
    tsg::Rng rng(specs[i].gen_seed);
    const auto block = stock.methods.at(specs[i].method)->Generate(kGenCount, rng);
    bad[i] = r.reply.GetString("digest", "") == DigestOf(block) ? 0 : 1;
  });
  const int64_t failed = std::count(bad.begin(), bad.end(), 1) + jobs -
                         static_cast<int64_t>(requests.size());
  ctx.report->Check(failed == 0, "aging: every generate served, its digest equal to the "
                                 "in-process restored model's (" +
                                     std::to_string(failed) + " of " +
                                     std::to_string(jobs) + " bad)");
  ctx.report->Ops(jobs, failed);
  return NowSeconds() - start;
}

namespace {

struct ServePass {
  std::vector<LoadRequest> requests;
  std::vector<JobKind> kinds;       ///< Per request.
  std::vector<int64_t> request_ids;  ///< Per request: gen_seed or order in kind.
  std::vector<int64_t> client_spans;
  int64_t backlog = 0;
  int64_t jobs_retained = 0;
};

/// One open-loop serve_mixed window of `seconds` against `daemon`, its
/// schedule and seeds drawn from (run seed, `salt`). Checks every reply.
ServePass ServeTraffic(Context& ctx, Daemon& daemon, const CellScores& grid,
                       const LocalModels& local, TracingRunner* tracer, uint64_t salt,
                       double seconds, const std::string& label) {
  Report& report = *ctx.report;
  ServePass pass;
  std::vector<std::unique_ptr<LineClient>> clients;
  for (int c = 0; c < 3; ++c) {
    auto client = LineClient::Connect(daemon.socket_path());
    TSG_CHECK(client.ok()) << client.status().ToString();
    clients.push_back(std::move(client).value());
  }
  LoadGenerator gen({clients[0].get(), clients[1].get(), clients[2].get()});

  // The schedule: three independent seeded Poisson streams, merged by time.
  struct Arrival {
    double t;
    int conn;
    JobKind kind;
  };
  std::vector<Arrival> arrivals;
  const double rates[3] = {kGenRate, kFitRate, kEvalRate};
  const JobKind kinds[3] = {JobKind::kGenerate, JobKind::kFit, JobKind::kEvaluate};
  for (int c = 0; c < 3; ++c) {
    std::vector<double> times = PoissonArrivals(
        (ctx.seed * 8 + salt) * 3 + static_cast<uint64_t>(c) + 0x5EED, rates[c], seconds);
    // A short window can draw no evaluate at 1/s; every kind needs a sample.
    if (times.empty()) times.push_back(seconds / 2);
    for (double t : times) arrivals.push_back({t, c, kinds[c]});
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.t < b.t; });

  tsg::Rng seeds((ctx.seed * 8 + salt) ^ 0x6E5EEDULL);
  const std::vector<std::string>& models = ServedStockMethods();
  int64_t per_kind[3] = {0, 0, 0};
  std::vector<JobSpec> specs;
  const double t0 = NowSeconds() + 0.05;
  for (const Arrival& a : arrivals) {
    static const char* kTenants[3] = {"gen", "fit", "eval"};
    const int64_t k = per_kind[a.conn]++;
    JobSpec spec = Spec(a.kind, kTenants[a.conn],
                        models[static_cast<size_t>(k) % models.size()], "Stock");
    int64_t request = k;
    if (a.kind == JobKind::kGenerate) {
      spec.count = kGenCount;
      spec.gen_seed = seeds.NextUint64() >> 33;  // Fits a JSON integer exactly.
      request = static_cast<int64_t>(spec.gen_seed);
    }
    LoadRequest r;
    r.conn = a.conn;
    r.line = SubmitLine(spec);
    gen.Add(std::move(r), t0 + a.t);
    specs.push_back(spec);
    pass.kinds.push_back(a.kind);
    pass.request_ids.push_back(request);
    const int64_t client_span = tracer != nullptr ? ctx.spans->NextId() : -1;
    pass.client_spans.push_back(client_span);
    if (tracer != nullptr) tracer->ExpectRequest(a.kind, request, client_span);
  }

  int64_t bad_fit = 0, bad_eval = 0, bad_gen = 0;
  if (tracer == nullptr) ctx.StartTimedPhase();
  gen.Run(t0 + seconds, t0 + seconds + 60.0, [&](size_t i) {
    LoadRequest& r = gen.requests()[i];
    if (!r.record.ok) return;
    const JobSpec& spec = specs[i];
    if (spec.kind == JobKind::kFit && r.reply.GetBool("trained", true)) {
      r.record.ok = false;
      ++bad_fit;
    } else if (spec.kind == JobKind::kGenerate &&
               r.reply.GetInt("count", -1) != kGenCount) {
      r.record.ok = false;
      ++bad_gen;
    } else if (spec.kind == JobKind::kEvaluate) {
      // The daemon's evaluate must reproduce the grid cell bit for bit.
      const auto cell = grid.find(spec.method + "/Stock");
      const tsg::io::JsonValue* scores = r.reply.Find("scores");
      bool same = cell != grid.end() && scores != nullptr &&
                  scores->object_items().size() == cell->second.size();
      if (same) {
        for (const auto& [measure, v] : scores->object_items()) {
          const auto want = cell->second.find(measure);
          same = same && want != cell->second.end() &&
                 v.GetNumber("mean", NAN) == want->second.first &&
                 v.GetNumber("stddev", NAN) == want->second.second;
        }
      }
      if (!same) {
        r.record.ok = false;
        ++bad_eval;
      }
    }
  });
  if (tracer == nullptr) ctx.EndTimedPhase();
  pass.requests = gen.requests();
  pass.backlog = gen.backlog_at_stop();

  // Every generate digest against the in-process restored model.
  std::vector<char> mismatch(specs.size(), 0);
  ForEachInParallel(specs.size(), [&](size_t i) {
    const LoadRequest& r = pass.requests[i];
    if (specs[i].kind != JobKind::kGenerate || !r.record.ok) return;
    tsg::Rng rng(specs[i].gen_seed);
    const auto block = local.methods.at(specs[i].method)->Generate(kGenCount, rng);
    mismatch[i] = r.reply.GetString("digest", "") != DigestOf(block) ? 1 : 0;
  });
  for (size_t i = 0; i < specs.size(); ++i) {
    if (mismatch[i] == 0) continue;
    pass.requests[i].record.ok = false;
    ++bad_gen;
  }
  report.Check(bad_fit == 0, label + ": every fit reply has trained=false (" +
                                 std::to_string(bad_fit) + " bad)");
  report.Check(bad_gen == 0, label +
                                 ": every generate digest equals the in-process "
                                 "restored model's (" +
                                 std::to_string(bad_gen) + " bad)");
  report.Check(bad_eval == 0, label + ": every evaluate reply equals the grid cell (" +
                                  std::to_string(bad_eval) + " bad)");

  const auto status =
      clients[0]->Call(CommandLine(tsg::serve::Request::Cmd::kStatus));
  report.Check(status.ok(), label + ": status reply");
  if (status.ok() && status.value().Find("jobs") != nullptr) {
    pass.jobs_retained =
        static_cast<int64_t>(status.value().Find("jobs")->array_items().size());
  }
  int64_t failed = 0;
  for (const LoadRequest& r : pass.requests) {
    if (r.record.ok) continue;
    if (++failed <= 3) {
      std::printf("%s: failed request: %s -> %s\n", label.c_str(), r.line.c_str(),
                  r.record.completed ? r.reply.GetString("error", "bad reply").c_str()
                                     : "no reply");
    }
  }
  report.Ops(static_cast<int64_t>(pass.requests.size()), failed);
  return pass;
}

std::vector<double> LatenciesOf(const ServePass& pass, JobKind kind) {
  std::vector<double> out;
  for (size_t i = 0; i < pass.requests.size(); ++i) {
    if (pass.kinds[i] == kind) out.push_back(pass.requests[i].record.latency_ms());
  }
  return out;
}

std::string TailNote(const Tail& tail) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g of %lld, %lld beyond", tail.q,
                static_cast<long long>(tail.n), static_cast<long long>(tail.beyond));
  return buf;
}

int64_t ServingCount(const char* name) {
  return tsg::obs::MetricRegistry::Global().GetCounter(name).value();
}

/// Median microseconds of `fn` over `reps` calls, each recorded as a span.
template <typename Fn>
double MedianUs(SpanLog* log, const std::string& name, int reps, Fn fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    ScopedSpan span(log, name);
    fn(i);
    us.push_back(span.Elapsed() * 1e6);
  }
  return Median(us);
}

/// Per-layer serve metrics: a traced pass through the traced daemon, and
/// direct timed calls on the pass's own requests.
void TracedServe(Context& ctx, ServingSetup& traced_setup, const CellScores& grid,
                 const LocalModels& local, const ServeTotals& untraced) {
  Report& report = *ctx.report;
  TracingRunner* tracer = traced_setup.daemon->tracer();
  const int64_t hits0 = ServingCount("serving.hits");
  const int64_t misses0 = ServingCount("serving.misses");
  const size_t first_span = ctx.spans->spans().size();
  const ServePass traced = ServeTraffic(ctx, *traced_setup.daemon, grid, local, tracer,
                                        /*salt=*/4, ctx.seconds, "traced serve");
  const int64_t hits = ServingCount("serving.hits") - hits0;
  const int64_t lookups = hits + ServingCount("serving.misses") - misses0;
  for (size_t i = 0; i < traced.requests.size(); ++i) {
    const LoadRequest& r = traced.requests[i];
    Span span;
    span.id = traced.client_spans[i];
    span.request = traced.request_ids[i];
    span.name = std::string("client.") + tsg::serve::JobKindName(traced.kinds[i]);
    span.start_s = r.record.scheduled_s;
    span.end_s = r.record.completed ? r.record.done_s : r.record.scheduled_s;
    ctx.spans->Record(std::move(span));
  }

  // Runner spans by (kind, request), against the client's records.
  std::map<std::pair<std::string, int64_t>, Span> runner;
  std::map<std::string, std::vector<double>> runner_ms;
  const std::vector<Span> spans = ctx.spans->spans();
  for (size_t i = first_span; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name.rfind("serve.runner.", 0) != 0) continue;
    runner[{s.name.substr(13), s.request}] = s;
    runner_ms[s.name.substr(13)].push_back(s.duration_s() * 1e3);
  }
  std::vector<double> overhead_ms, queue_wait_ms;
  for (size_t i = 0; i < traced.requests.size(); ++i) {
    const LoadRequest& r = traced.requests[i];
    if (traced.kinds[i] != JobKind::kGenerate || !r.record.ok) continue;
    const auto it = runner.find({"generate", traced.request_ids[i]});
    if (it == runner.end()) continue;
    overhead_ms.push_back((r.record.done_s - r.record.sent_s) * 1e3 -
                          it->second.duration_s() * 1e3);
    queue_wait_ms.push_back((it->second.start_s - r.record.sent_s) * 1e3);
  }
  for (const char* kind : {"generate", "fit", "evaluate"}) {
    const auto& v = runner_ms[kind];
    report.Set(std::string("serve.runner_ms.") + kind, v.empty() ? 0.0 : Median(v),
               static_cast<int64_t>(v.size()), "median runner span");
  }
  report.Check(!overhead_ms.empty(), "traced serve: runner spans matched to requests");
  report.Set("serve.overhead_ms", overhead_ms.empty() ? 0.0 : Median(overhead_ms),
             static_cast<int64_t>(overhead_ms.size()),
             "median (reply - send) - runner span, generate");
  const Tail wait = HighestSupportedPercentile(queue_wait_ms, 99.0);
  report.Set("serve.queue_wait_p99_ms", wait.value, wait.n,
             "runner start - send, generate; " + TailNote(wait));
  report.Set("serve.jobs_retained", static_cast<double>(untraced.jobs_retained), 1,
             "status job records after the untraced slices");
  report.Set("store.serving_hit_ratio",
             lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0,
             lookups, "serving.hits / (hits + misses) in the traced pass");
  const double traced_p50 = Median(LatenciesOf(traced, JobKind::kGenerate));
  const double untraced_p50 = Median(untraced.gen_ms);
  report.Set("trace.overhead_pct.gen_p50_ms",
             100.0 * (traced_p50 - untraced_p50) / untraced_p50, 1,
             "traced " + std::to_string(traced_p50) + " ms vs untraced " +
                 std::to_string(untraced_p50) + " ms");

  // Direct timed calls on the pass's own requests.
  report.Set("core.fingerprint_us",
             MedianUs(ctx.spans, "core.fingerprint", 50,
                      [&](int) { (void)local.pre.train.Fingerprint(); }),
             50, "Dataset::Fingerprint of Stock train");
  std::vector<size_t> gens;
  for (size_t i = 0; i < traced.requests.size() && gens.size() < 200; ++i) {
    if (traced.kinds[i] == JobKind::kGenerate) gens.push_back(i);
  }
  tsg::store::ArtifactStore store(traced_setup.store_dir);
  tsg::store::ServingCache cache(&store);
  const std::vector<std::string>& models = ServedStockMethods();
  for (const std::string& m : models) {
    (void)cache.Generate(local.keys.at(m), {{kGenCount, 1}});
  }
  report.Set("store.serving_generate_us",
             MedianUs(ctx.spans, "store.serving_generate", static_cast<int>(gens.size()),
                      [&](int k) {
                        const size_t i = gens[static_cast<size_t>(k)];
                        const std::string& m =
                            models[static_cast<size_t>(k) % models.size()];
                        (void)cache.Generate(local.keys.at(m),
                                             {{kGenCount, static_cast<uint64_t>(
                                                              traced.request_ids[i])}});
                      }),
             static_cast<int64_t>(gens.size()), "ServingCache::Generate, count 16");
  std::vector<double> load_ms, restore_ms, evaluate_ms;
  tsg::core::Harness harness(local.options);
  const int64_t count =
      std::min(local.options.max_eval_samples, local.pre.train.num_samples());
  const tsg::core::Dataset reference = local.pre.train.Head(count);
  (void)harness.GetEmbedder(local.pre.train.name(), reference);
  for (const std::string& m : models) {
    const tsg::core::TsgMethod& method = *local.methods.at(m);
    report.Set("methods.generate_batch_us." + m,
               MedianUs(ctx.spans, "methods.generate_batch", 50,
                        [&](int k) {
                          (void)method.GenerateBatch(
                              {{kGenCount, static_cast<uint64_t>(k + 1)}});
                        }),
               50, "GenerateBatch, count 16");
    for (int rep = 0; rep < 5; ++rep) {
      StatusOr<tsg::core::MethodSnapshot> snapshot = Status::Ok();
      {
        ScopedSpan span(ctx.spans, "store.load");
        snapshot = store.Load(local.keys.at(m));
        load_ms.push_back(span.Elapsed() * 1e3);
      }
      TSG_CHECK(snapshot.ok());
      auto fresh = tsg::methods::CreateMethod(m);
      TSG_CHECK(fresh.ok());
      ScopedSpan span(ctx.spans, "methods.restore");
      TSG_CHECK(fresh.value()->Restore(snapshot.value()).ok());
      restore_ms.push_back(span.Elapsed() * 1e3);
    }
    tsg::Rng rng(local.options.seed ^ 0x6E4E12A7);
    const tsg::core::Dataset generated(m + "@Stock", method.Generate(count, rng));
    ScopedSpan span(ctx.spans, "core.evaluate");
    const auto scores =
        harness.EvaluateGenerated(reference, local.pre.test, generated,
                                  local.pre.train.name());
    evaluate_ms.push_back(span.Elapsed() * 1e3);
    report.Check(scores.ok(), "direct EvaluateGenerated for " + m);
  }
  report.Set("store.load_ms", Median(load_ms), static_cast<int64_t>(load_ms.size()),
             "ArtifactStore::Load, 4 served models");
  report.Set("methods.restore_ms", Median(restore_ms),
             static_cast<int64_t>(restore_ms.size()), "TsgMethod::Restore");
  report.Set("core.evaluate_ms", Median(evaluate_ms),
             static_cast<int64_t>(evaluate_ms.size()), "Harness::EvaluateGenerated");
}

}  // namespace

void RunServeSlice(Context& ctx, Daemon& daemon, const LocalModels& stock,
                   const CellScores& grid, int slice, ServeTotals* serve) {
  const ServePass pass = ServeTraffic(ctx, daemon, grid, stock, nullptr,
                                      static_cast<uint64_t>(slice), ctx.seconds / 4,
                                      "serve slice " + std::to_string(slice));
  for (auto [kind, out] : {std::pair{JobKind::kGenerate, &serve->gen_ms},
                           std::pair{JobKind::kFit, &serve->fit_ms},
                           std::pair{JobKind::kEvaluate, &serve->eval_ms}}) {
    const std::vector<double> ms = LatenciesOf(pass, kind);
    out->insert(out->end(), ms.begin(), ms.end());
  }
  for (const LoadRequest& r : pass.requests) {
    serve->lateness_ms.push_back(r.record.lateness_ms());
  }
  serve->requests += static_cast<int64_t>(pass.requests.size());
  serve->backlog = pass.backlog;
  serve->jobs_retained = pass.jobs_retained;
}

void FinishServe(Context& ctx, ServingSetup* traced, const LocalModels& stock,
                 const CellScores& grid, const ServeTotals& serve) {
  Report& report = *ctx.report;
  const Tail tail = HighestSupportedPercentile(serve.gen_ms, 99.0);
  const double fit_p50 = Median(serve.fit_ms);
  const double eval_p50 = Median(serve.eval_ms);
  report.Set("gen_p50_ms", Median(serve.gen_ms),
             static_cast<int64_t>(serve.gen_ms.size()), "from scheduled send");
  const Tail late = HighestSupportedPercentile(serve.lateness_ms, 99.0);
  std::printf("serve_mixed: %lld requests; generate tail %s = %.3f ms; store-hit fit "
              "p50 of %zu = %.3f ms; store-hit evaluate p50 of %zu = %.3f ms; generator "
              "lateness %s = %.3f ms; backlog at end %lld; jobs retained %lld\n",
              static_cast<long long>(serve.requests), TailNote(tail).c_str(), tail.value,
              serve.fit_ms.size(), fit_p50, serve.eval_ms.size(), eval_p50,
              TailNote(late).c_str(), late.value, static_cast<long long>(serve.backlog),
              static_cast<long long>(serve.jobs_retained));
  if (ctx.spans != nullptr) {
    report.Set("serve.gen_tail_ms", tail.value, tail.n,
               TailNote(tail) + ", untraced slices");
    report.Set("serve.fit_hit_p50_ms", fit_p50, static_cast<int64_t>(serve.fit_ms.size()),
               "untraced slices");
    report.Set("serve.eval_hit_p50_ms", eval_p50,
               static_cast<int64_t>(serve.eval_ms.size()), "untraced slices");
    report.Set("loadgen.lateness_p99_ms", late.value, late.n, TailNote(late));
    report.Set("loadgen.backlog_at_end", static_cast<double>(serve.backlog), 1,
               "requests unanswered when sending stopped");
    TracedServe(ctx, *traced, grid, stock, serve);
  }
}

}  // namespace perfbench
