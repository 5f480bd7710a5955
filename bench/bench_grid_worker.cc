// Grid worker: one process of an N-worker benchmark grid run. Workers share
// nothing but the checkpoint directory — each runs the grid sweep, which loads
// every checkpointed (method, dataset) cell, claims the pending ones via atomic
// lease files (DESIGN.md §10), computes the ones it wins through the
// store-aware harness, and checkpoints them exactly like the single-process
// grid. Launch any number against the same TSGBENCH_OUT (and optionally
// TSGBENCH_STORE_DIR, to share trained models); each writes the grid summary
// once every cell is done. A worker started over a finished grid computes
// nothing (its --metrics_out shows no grid.cells.computed): the coverage check.
//
// Flags: --methods=A,B --datasets=d1,d2 (default: full 10x10 paper grid),
// --lease_stale_seconds=<s>, --max_wait_seconds=<s>, --metrics_out=<path>.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/simulators.h"
#include "methods/factory.h"

int main(int argc, char** argv) {
  tsg::bench::ParseBenchFlags(&argc, argv);
  std::string methods_csv;
  std::string datasets_csv;
  tsg::bench::ShardOptions options;
  tsg::bench::ConsumeFlagValue(&argc, argv, "methods", &methods_csv);
  tsg::bench::ConsumeFlagValue(&argc, argv, "datasets", &datasets_csv);
  tsg::bench::ConsumeNumericFlag(&argc, argv, "lease_stale_seconds",
                                 &options.lease_stale_seconds);
  tsg::bench::ConsumeNumericFlag(&argc, argv, "max_wait_seconds",
                                 &options.max_wait_seconds);
  if (!tsg::bench::RequireNoUnknownFlags(
          argc, argv,
          "bench_grid_worker [--methods=A,B] [--datasets=d1,d2] "
          "[--lease_stale_seconds=<s>] [--max_wait_seconds=<s>] "
          "[--metrics_out=<path>]")) {
    return 2;
  }
  if (argc > 1) {
    std::fprintf(stderr, "unknown argument: %s\n", argv[1]);
    return 2;
  }

  const auto methods = tsg::bench::ParseMethodList(methods_csv);
  const auto datasets = tsg::bench::ParseDatasetList(datasets_csv);
  if (!methods.ok()) {
    std::fprintf(stderr, "%s\n", methods.status().ToString().c_str());
    return 2;
  }
  if (!datasets.ok()) {
    std::fprintf(stderr, "%s\n", datasets.status().ToString().c_str());
    return 2;
  }

  const tsg::bench::BenchConfig config = tsg::bench::LoadConfig();
  const auto grid = tsg::bench::RunGridShard(config, methods.value(),
                                             datasets.value(), options);
  if (!grid.ok()) {
    std::fprintf(stderr, "[grid-worker] grid failed: %s\n",
                 grid.status().ToString().c_str());
    tsg::bench::WriteMetricsSnapshot();
    return 1;
  }
  std::printf("[grid-worker] computed %lld cells; summary at %s\n",
              static_cast<long long>(grid.value().computed),
              tsg::bench::GridSummaryPath(config).c_str());
  tsg::bench::WriteMetricsSnapshot();
  return 0;
}
