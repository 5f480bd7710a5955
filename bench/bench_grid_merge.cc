// Sharded-grid supervisor: run after the bench_grid_worker processes exit.
// Workers already write the summary; the merge is the strict coverage check
// (--require_complete) or finishes cells no worker finished. It refuses a cell
// a live worker still holds, removes leases orphaned next to finished
// checkpoints, then runs the grid sweep: loads every cell's checkpoint,
// reclaims and computes any missing cell (unless --require_complete)
// concurrently on the TSG_THREADS pool, and writes the grid summary,
// byte-identical to a single-process RunGrid of the same config.
//
// Flags: --methods=A,B --datasets=d1,d2 (default: full 10x10 paper grid),
// --require_complete (strict: a missing checkpoint is an error),
// --lease_stale_seconds=<s>, --metrics_out=<path>.

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
  tsg::bench::MergeOptions options;
  options.compute_missing =
      !tsg::bench::ConsumeFlag(&argc, argv, "require_complete");
  tsg::bench::ConsumeFlagValue(&argc, argv, "methods", &methods_csv);
  tsg::bench::ConsumeFlagValue(&argc, argv, "datasets", &datasets_csv);
  tsg::bench::ConsumeNumericFlag(&argc, argv, "lease_stale_seconds",
                                 &options.lease_stale_seconds);
  if (!tsg::bench::RequireNoUnknownFlags(
          argc, argv,
          "bench_grid_merge [--methods=A,B] [--datasets=d1,d2] "
          "[--require_complete] [--lease_stale_seconds=<s>] "
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
  const auto merged = tsg::bench::MergeGridShards(config, methods.value(),
                                                  datasets.value(), options);
  if (!merged.ok()) {
    std::fprintf(stderr, "[grid-merge] merge failed: %s\n",
                 merged.status().ToString().c_str());
    tsg::bench::WriteMetricsSnapshot();
    return 1;
  }
  const size_t failures = tsg::bench::ReportFailures(merged.value());
  std::printf("[grid-merge] %zu rows, %zu failed cells; summary at %s\n",
              merged.value().rows.size(), failures,
              tsg::bench::GridSummaryPath(config).c_str());
  tsg::bench::WriteMetricsSnapshot();
  return 0;
}
