// tsgd: the benchmark-as-a-service daemon (DESIGN.md §11). Listens on a
// Unix-domain socket (and optionally 127.0.0.1:<port>) speaking the
// newline-delimited JSON protocol in src/serve/protocol.h, runs submitted
// fit/generate/evaluate/grid jobs on the shared thread pool, and serves warm
// generation from the store::ServingCache. Results are byte-identical to the
// batch binaries over the same TSGBENCH_* configuration; grid jobs checkpoint
// per cell, so a killed daemon resumes exactly where it stopped.
//
// Environment: TSGBENCH_SCALE / TSGBENCH_SEED / TSGBENCH_OUT /
// TSGBENCH_STORE_DIR (defaults to <out>/model_store when unset) /
// TSGBENCH_SERVING_CACHE_BYTES / TSG_THREADS.
//
// Flags: --socket=<path> (required), --tcp_port=<p>, --idle_timeout=<s>,
// --max_inflight=<n>, --max_inflight_per_tenant=<n>, --max_queued=<n>,
// --metrics_out=<path>.
//
// SIGTERM/SIGINT drain: running grid jobs stop at the next cell checkpoint,
// queued jobs fail as "drained", waiters are answered, then the process exits
// 0. SIGKILL is also safe — completed cells are already on disk.

#include <csignal>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "serve/bench_runner.h"
#include "serve/server.h"

namespace {

tsg::serve::Server* g_server = nullptr;

void HandleStopSignal(int) {
  if (g_server != nullptr) g_server->RequestStop();
}

}  // namespace

int main(int argc, char** argv) {
  tsg::bench::ParseBenchFlags(&argc, argv);
  tsg::serve::ServerOptions options;
  tsg::bench::ConsumeFlagValue(&argc, argv, "socket", &options.socket_path);
  tsg::bench::ConsumeNumericFlag(&argc, argv, "tcp_port", &options.tcp_port);
  tsg::bench::ConsumeNumericFlag(&argc, argv, "idle_timeout",
                                 &options.idle_timeout_seconds);
  tsg::bench::ConsumeNumericFlag(&argc, argv, "max_inflight",
                                 &options.limits.max_inflight);
  tsg::bench::ConsumeNumericFlag(&argc, argv, "max_inflight_per_tenant",
                                 &options.limits.max_inflight_per_tenant);
  tsg::bench::ConsumeNumericFlag(&argc, argv, "max_queued",
                                 &options.limits.max_queued);
  const std::string usage =
      "tsgd --socket=<path> [--tcp_port=<p>] [--idle_timeout=<s>] "
      "[--max_inflight=<n>] [--max_inflight_per_tenant=<n>] "
      "[--max_queued=<n>] [--metrics_out=<path>]";
  if (!tsg::bench::RequireNoUnknownFlags(argc, argv, usage)) return 2;
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "--socket is required\nusage: %s\n", usage.c_str());
    return 2;
  }
  if (options.tcp_port < 0 || options.tcp_port > 65535) {
    std::fprintf(stderr, "--tcp_port=%d is outside [0, 65535]\n", options.tcp_port);
    return 2;
  }
  if (options.limits.max_inflight < 1 ||
      options.limits.max_inflight_per_tenant < 1 ||
      options.limits.max_queued < 1) {
    std::fprintf(stderr, "in-flight and queue limits must be >= 1\n");
    return 2;
  }

  tsg::bench::BenchConfig config = tsg::bench::LoadConfig();
  if (config.store_dir.empty()) {
    // The daemon always serves models from a store: fit publishes into it and
    // generate restores from it. Default next to the other artifacts.
    config.store_dir = config.out_dir + "/model_store";
  }
  tsg::serve::BenchJobRunner runner(config);
  tsg::serve::Server server(options, &runner);
  const tsg::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "tsgd start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  g_server = &server;
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // The "listening" line is the readiness handshake scripts wait for.
  std::printf("[tsgd] listening on %s", options.socket_path.c_str());
  if (server.tcp_port() > 0) {
    std::printf(" and 127.0.0.1:%d", server.tcp_port());
  }
  std::printf(" (scale=%g seed=%llu out=%s store=%s)\n", config.scale,
              static_cast<unsigned long long>(config.seed),
              config.out_dir.c_str(), config.store_dir.c_str());
  std::fflush(stdout);

  const long long done = static_cast<long long>(server.Serve());
  std::printf("[tsgd] exit: %lld job(s) completed\n", done);
  tsg::bench::WriteMetricsSnapshot();
  return 0;
}
