// CI smoke driver: runs a tiny 2-method x 2-dataset bench grid end to end at a
// minimal training budget, and can kill itself after a fixed number of completed
// fits (TSG_SMOKE_KILL_AFTER=N) to exercise the checkpoint/resume path exactly as
// an interrupted batch job would. scripts/ci_smoke_grid.sh drives the full
// kill -> resume -> byte-compare protocol and the --metrics_out determinism check.
//
// Every mode runs the one grid sweep (lease-claimed cells, DESIGN.md §10):
// --shard as a sharded-grid worker with a short no-progress timeout and
// --merge as the strict supervisor, so scripts/ci_sharded_grid.sh can drive a
// multi-worker kill/reclaim/merge cycle with the identical kill
// instrumentation. A run killed via TSG_SMOKE_KILL_AFTER dies between claiming
// a cell's lease and checkpointing it, leaving exactly the dangling-lease
// state the reclaim path exists for.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/fnv.h"
#include "base/parse.h"
#include "bench_util.h"
#include "core/method.h"
#include "data/simulators.h"
#include "methods/factory.h"

namespace tsg::bench {
namespace {

/// Completed Fit calls across all smoke methods. With TSG_THREADS=1 the grid
/// sweeps cells serially, so the kill point — and therefore the set of
/// checkpoints left on disk — is deterministic.
std::atomic<int> g_fits_done{0};

/// TSG_SMOKE_KILL_AFTER: a whole number >= 0 (0 or unset = never kill). Any
/// other value exits 2 naming the variable.
int KillAfter() {
  static const int kill_after = [] {
    int parsed = 0;
    const char* env = std::getenv("TSG_SMOKE_KILL_AFTER");
    if (env != nullptr && (!base::ParseNumber(env, &parsed) || parsed < 0)) {
      std::fprintf(stderr,
                   "invalid value for TSG_SMOKE_KILL_AFTER: '%s' "
                   "(want a whole number >= 0)\n",
                   env);
      std::exit(2);
    }
    return parsed;
  }();
  return kill_after;
}

/// Simulates a hard kill (OOM, preemption) between grid cells: no atexit
/// handlers, no flushing beyond what already hit the disk atomically.
void MaybeKillBeforeFit() {
  const int kill_after = KillAfter();
  if (kill_after > 0 && g_fits_done.load(std::memory_order_relaxed) >= kill_after) {
    std::fprintf(stderr, "[smoke] simulating kill after %d completed fits\n",
                 kill_after);
    std::_Exit(3);
  }
}

/// Delegates to a real built-in method under a distinct registry name ("SmokeVAE"
/// wrapping "TimeVAE"): registering the wrapper under the built-in's own name
/// would shadow it and make the delegating CreateMethod call recurse forever.
class SmokeMethod : public core::TsgMethod {
 public:
  SmokeMethod(std::string name, std::unique_ptr<core::TsgMethod> inner)
      : name_(std::move(name)), inner_(std::move(inner)) {}

  Status Fit(const core::Dataset& train, const core::FitOptions& options) override {
    MaybeKillBeforeFit();
    const Status s = inner_->Fit(train, options);
    if (s.ok()) g_fits_done.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override {
    return inner_->Generate(count, rng);
  }
  StatusOr<core::MethodSnapshot> Snapshot() const override {
    return inner_->Snapshot();
  }
  Status Restore(const core::MethodSnapshot& snapshot) override {
    return inner_->Restore(snapshot);
  }
  uint64_t HyperparameterDigest() const override {
    // Mix the wrapper name in so SmokeVAE and TimeVAE artifacts never collide
    // even though the fitted state is identical.
    return base::Fnv64()
        .String(name_)
        .U64(inner_->HyperparameterDigest())
        .digest();
  }
  std::string name() const override { return name_; }

 private:
  const std::string name_;
  std::unique_ptr<core::TsgMethod> inner_;
};

void RegisterSmokeMethod(const std::string& name, const std::string& inner) {
  methods::RegisterMethod(name, [name, inner] {
    auto method = methods::CreateMethod(inner);
    TSG_CHECK(method.ok()) << method.status().ToString();
    return std::make_unique<SmokeMethod>(name, std::move(method).value());
  });
}

}  // namespace
}  // namespace tsg::bench

int main(int argc, char** argv) {
  tsg::bench::ParseBenchFlags(&argc, argv);
  const bool shard_mode = tsg::bench::ConsumeFlag(&argc, argv, "shard");
  const bool merge_mode = tsg::bench::ConsumeFlag(&argc, argv, "merge");
  if (!tsg::bench::RequireNoUnknownFlags(
          argc, argv,
          "bench_smoke_grid [--shard | --merge] [--metrics_out=<path>]")) {
    return 2;
  }
  tsg::bench::KillAfter();  // Rejects a malformed kill point before any work.
  tsg::bench::RegisterSmokeMethod("SmokeVAE", "TimeVAE");
  tsg::bench::RegisterSmokeMethod("SmokeLS4", "LS4");

  const tsg::bench::BenchConfig config = tsg::bench::LoadConfig();
  const std::vector<std::string> methods = {"SmokeVAE", "SmokeLS4"};
  const std::vector<tsg::data::DatasetId> datasets = {tsg::data::DatasetId::kDlg,
                                                      tsg::data::DatasetId::kStock};

  if (shard_mode) {
    tsg::bench::ShardOptions options;
    options.worker_label = "smoke-shard";
    options.max_wait_seconds = 120.0;  // A hung peer fails the CI job fast.
    const auto grid = tsg::bench::RunGridShard(config, methods, datasets, options);
    if (!grid.ok()) {
      std::fprintf(stderr, "[smoke] shard failed: %s\n",
                   grid.status().ToString().c_str());
      tsg::bench::WriteMetricsSnapshot();
      return 1;
    }
    std::printf("[smoke] shard complete: computed %lld cells\n",
                static_cast<long long>(grid.value().computed));
    tsg::bench::WriteMetricsSnapshot();
    return 0;
  }

  if (merge_mode) {
    tsg::bench::MergeOptions options;
    // Strict: the workers must have covered the whole grid — the supervisor
    // merging CI artifacts should never silently train cells itself.
    options.compute_missing = false;
    const auto merged =
        tsg::bench::MergeGridShards(config, methods, datasets, options);
    if (!merged.ok()) {
      std::fprintf(stderr, "[smoke] merge failed: %s\n",
                   merged.status().ToString().c_str());
      tsg::bench::WriteMetricsSnapshot();
      return 1;
    }
    const size_t failures = tsg::bench::ReportFailures(merged.value());
    std::printf("[smoke] merge complete: %zu finished cells, %zu failed cells\n",
                merged.value().cells.size(), failures);
    tsg::bench::WriteMetricsSnapshot();
    return failures == 0 ? 0 : 1;
  }

  const auto grid = tsg::bench::RunGrid(config, methods, datasets);
  const size_t failures = tsg::bench::ReportFailures(grid);
  std::printf("[smoke] grid complete: %zu finished cells, %zu failed cells\n",
              grid.cells.size(), failures);
  tsg::bench::WriteMetricsSnapshot();
  return failures == 0 ? 0 : 1;
}
