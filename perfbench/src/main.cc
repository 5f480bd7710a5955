// tsg_perfbench: the repository benchmark. One run sets up the serving daemon
// (three times, for setup_s), ages it in the `aged` workload, then runs the
// three sections every run holds: grid_cold, serve_mixed and stream_live. The
// untraced run (--trace 0) reports the end-to-end metrics; the traced run
// (--trace 1) repeats each section with spans and reports the per-layer metrics
// and the tracing overhead. The last line of stdout is the result JSON. See
// perfbench/README.md.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "context.h"
#include "stats.h"

namespace perfbench {

const Workload* FindWorkload(const std::string& name) {
  // The same run on a fresh daemon and on one that has served 10^4 jobs.
  static const Workload kWorkloads[] = {{"fresh", 0}, {"aged", 10000}};
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

constexpr const char* kUsage =
    "usage: tsg_perfbench --workload <fresh|aged> --seed <n> --seconds <s> "
    "--trace <0|1>\n";

/// Accepts "--name value" and "--name=value"; false on anything else.
bool ParseArgs(int argc, char** argv, std::string* workload, uint64_t* seed,
               double* seconds, bool* trace) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      *workload = value;
      have[0] = true;
    } else if (arg == "--seed") {
      *seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = !value.empty() && *end == '\0';
    } else if (arg == "--seconds") {
      *seconds = std::strtod(value.c_str(), &end);
      have[2] = !value.empty() && *end == '\0' && *seconds >= 1.0 && *seconds <= 120.0;
    } else if (arg == "--trace") {
      *trace = value == "1";
      have[3] = value == "0" || value == "1";
    } else {
      return false;
    }
  }
  return have[0] && have[1] && have[2] && have[3];
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  NowSeconds();  // The clock's epoch: set-up is timed from process start.
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  if (!ParseArgs(argc, argv, &workload_name, &seed, &seconds, &trace)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const Workload* workload = FindWorkload(workload_name);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n%s", workload_name.c_str(), kUsage);
    return 2;
  }
  // Before anything starts the global thread pool: one pool thread (the
  // daemon adds the job workers max_inflight needs), and the program's
  // defaults for the serving cache (unbounded) and the autograd tape (fused,
  // arena) whatever the caller's environment says.
  constexpr int kThreads = 1;
  setenv("TSG_THREADS", std::to_string(kThreads).c_str(), 1);
  for (const char* knob :
       {"TSGBENCH_SERVING_CACHE_BYTES", "TSG_AG_FUSION", "TSG_AG_ARENA"}) {
    unsetenv(knob);
  }

  const std::string out_root = ".bench_out";
  const std::string run_dir = out_root + "/" + workload->name + "_s" +
                              std::to_string(seed) + "_" + std::to_string(getpid());
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(run_dir);

  Report report;
  SpanLog spans;
  Context ctx;
  ctx.workload = workload;
  ctx.seed = seed;
  ctx.seconds = seconds;
  ctx.run_dir = run_dir;
  ctx.config.scale = 1.0;
  ctx.config.seed = seed;
  ctx.config.out_dir = run_dir + "/out";
  ctx.report = &report;
  ctx.spans = trace ? &spans : nullptr;

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload->name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0);
  std::printf("hardware %s\n", HardwareJson(kThreads).c_str());
  std::fflush(stdout);
  const std::string drift = CompareWithBenchmarkJson("BENCHMARK.json");
  report.Check(drift.empty(),
               "BENCHMARK.json lists the metrics this binary reports:" + drift);

  // Set-up, three times over, each on an empty store; the last one serves
  // the timed phases.
  ServingSetup setup;
  // A failure that leaves no report to print: no result line, exit 1.
  auto fail = [&](const std::string& what) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
    setup = ServingSetup();
    std::filesystem::remove_all(run_dir);
    return 1;
  };
  std::vector<double> setup_s;
  for (int k = 0; k < 3; ++k) {
    const double start = k == 0 ? 0.0 : NowSeconds();
    const std::string dir = run_dir + "/setup" + std::to_string(k);
    auto s = SetUpServing(ctx, dir, dir + "/store", /*train=*/true);
    if (!s.ok()) return fail("set-up: " + s.status().ToString());
    setup_s.push_back(NowSeconds() - start);
    setup = std::move(s).value();
  }
  report.Set("setup_s", Median(setup_s), 3,
             "median of 3: train 6 models, start the daemon, warm-up");

  const auto stock = LoadLocalModels(ctx, setup.store_dir, tsg::data::DatasetId::kStock,
                                     ServedStockMethods());
  const auto long_models = LoadLocalModels(
      ctx, setup.store_dir, tsg::data::DatasetId::kStockLong, StreamedLongMethods());
  if (!stock.ok() || !long_models.ok()) {
    return fail("restoring the set-up models in-process");
  }

  // Aging is outside setup_s, so set-up is the same work in both workloads.
  auto age = [&](Daemon& daemon, uint64_t salt) {
    if (workload->aged_jobs == 0) return;
    const double s = AgeDaemon(ctx, daemon, *stock.value(), salt);
    std::printf("aging: %lld generate jobs served in %.2f s\n",
                static_cast<long long>(workload->aged_jobs), s);
  };

  double mark = 0.0;
  auto lap = [&](const std::string& what) {
    const double now = NowSeconds();
    std::printf("%s: %.2f s wall\n", what.c_str(), now - mark);
    std::fflush(stdout);
    mark = now;
  };
  lap("set-up x3");
  age(*setup.daemon, /*salt=*/6);
  mark = NowSeconds();
  // Four rounds (see context.h): a serve_mixed quarter in each, grid_cold
  // halves in the even rounds and stream_live halves in the odd ones.
  GridPass grid;
  ServeTotals serve;
  StreamTotals stream;
  for (int round = 0; round < 4; ++round) {
    const std::string name = "round " + std::to_string(round) + ": ";
    if (round % 2 == 0) {
      RunGridHalf(ctx, round / 2, &grid);
      lap(name + "grid_cold half");
    }
    RunServeSlice(ctx, *setup.daemon, *stock.value(), grid.scores, round, &serve);
    lap(name + "serve_mixed quarter");
    if (round % 2 == 1) {
      RunStreamHalf(ctx, *setup.daemon, round / 2, &stream);
      lap(name + "stream_live half");
    }
  }
  setup.daemon.reset();
  FinishGrid(ctx, grid);
  // The traced serve and stream passes share one fresh daemon on the same
  // store, aged as the untraced one was, in the untraced rounds' order.
  ServingSetup traced;
  if (trace) {
    auto s = SetUpServing(ctx, run_dir + "/traced", setup.store_dir, /*train=*/false,
                          &spans);
    if (!s.ok()) return fail("traced set-up: " + s.status().ToString());
    traced = std::move(s).value();
    age(*traced.daemon, /*salt=*/7);
  }
  FinishServe(ctx, &traced, *stock.value(), grid.scores, serve);
  FinishStream(ctx, &traced, *long_models.value(), stream);
  if (trace) {
    traced.daemon->Stop();
    lap("traced passes");
  }
  report.Set("peak_rss_mb", ctx.peak_rss_mb, 8,
             "highest VmHWM over the eight timed phases");

  if (trace) {
    const std::string path = out_root + "/trace_" + workload->name + "_s" +
                             std::to_string(seed) + ".json";
    report.Check(spans.WriteJson(path), "span log written to " + path);
    std::printf("spans: %zu written to %s\n", spans.spans().size(), path.c_str());
  }
  setup = ServingSetup();
  traced = ServingSetup();
  std::filesystem::remove_all(run_dir);
  return report.Print(trace ? PerLayerMetrics() : EndToEndMetrics()) ? 0 : 1;
}
