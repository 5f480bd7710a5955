#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ag/ops.h"
#include "base/thread_pool.h"
#include "bench_util.h"
#include "core/ranking.h"
#include "io/atomic_file.h"
#include "io/lease.h"
#include "methods/factory.h"
#include "nn/optimizer.h"
#include "nn/train.h"
#include "obs/metrics.h"

namespace tsg::bench {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(BenchConfigTest, DefaultsAndDerivedKnobs) {
  unsetenv("TSGBENCH_SCALE");
  unsetenv("TSGBENCH_SEED");
  setenv("TSGBENCH_OUT", "/tmp/tsg_bench_cfg_test", 1);
  const BenchConfig config = LoadConfig();
  EXPECT_DOUBLE_EQ(config.scale, 1.0);
  EXPECT_EQ(config.seed, 42u);
  EXPECT_EQ(config.out_dir, "/tmp/tsg_bench_cfg_test");
  EXPECT_TRUE(std::filesystem::exists(config.out_dir));
  EXPECT_DOUBLE_EQ(config.dataset_scale(), 0.02);
  EXPECT_EQ(config.stochastic_repeats(), 2);
  std::filesystem::remove_all(config.out_dir);
}

TEST(BenchConfigTest, EnvOverridesApply) {
  setenv("TSGBENCH_SCALE", "2.5", 1);
  setenv("TSGBENCH_SEED", "123", 1);
  setenv("TSGBENCH_OUT", "/tmp/tsg_bench_cfg_test2", 1);
  const BenchConfig config = LoadConfig();
  EXPECT_DOUBLE_EQ(config.scale, 2.5);
  EXPECT_EQ(config.seed, 123u);
  EXPECT_EQ(config.stochastic_repeats(), 5);   // Paper-fidelity repeats at scale>=2.
  EXPECT_EQ(config.max_eval_samples(), 256);
  unsetenv("TSGBENCH_SCALE");
  unsetenv("TSGBENCH_SEED");
  unsetenv("TSGBENCH_OUT");
  std::filesystem::remove_all("/tmp/tsg_bench_cfg_test2");
}

TEST(BenchConfigDeathTest, MalformedNumericEnvExitsTwoNamingTheVariable) {
  // Parsing a prefix would silently run "7x" as seed 7 and "abc" at the 0.05
  // scale floor, under another config's checkpoints.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"TSGBENCH_SEED", "7x"}, {"TSGBENCH_SCALE", "abc"}};
  for (const auto& [name, value] : bad) {
    EXPECT_EXIT(
        {
          setenv("TSGBENCH_OUT", "/tmp/tsg_bench_cfg_death", 1);
          setenv(name.c_str(), value.c_str(), 1);
          LoadConfig();
          std::exit(0);
        },
        ::testing::ExitedWithCode(2), "invalid value for " + name)
        << value;
  }
  std::filesystem::remove_all("/tmp/tsg_bench_cfg_death");
}

TEST(PrepareDatasetTest, CapsLongWindowDatasets) {
  BenchConfig config;
  config.out_dir = "/tmp/tsg_bench_prep_test";
  const auto boiler = PrepareDataset(data::DatasetId::kBoiler, config);
  // Boiler (l=192) is capped near 176 windows at scale 1.
  EXPECT_LE(boiler.train.num_samples() + boiler.test.num_samples(), 200);
  EXPECT_EQ(boiler.train.seq_len(), 192);
  std::filesystem::remove_all(config.out_dir);
}

/// A mutable, null-terminated argv the flag parsers can strip in place.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    args_.insert(args_.begin(), "prog");
    for (std::string& a : args_) ptrs_.push_back(a.data());
    ptrs_.push_back(nullptr);
    argc = static_cast<int>(args_.size());
  }
  char** argv() { return ptrs_.data(); }
  int argc = 0;

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

TEST(FlagTest, NumericFlagParsesWholeValueAndStripsIt) {
  Argv args({"--count=12", "cmd", "--seed=18446744073709551615",
             "--ratio=-2.5e-3", "--port=8080"});
  int64_t count = 0;
  uint64_t seed = 0;
  double ratio = 0.0;
  int port = 0;
  int absent = 7;
  EXPECT_TRUE(ConsumeNumericFlag(&args.argc, args.argv(), "count", &count));
  EXPECT_TRUE(ConsumeNumericFlag(&args.argc, args.argv(), "seed", &seed));
  EXPECT_TRUE(ConsumeNumericFlag(&args.argc, args.argv(), "ratio", &ratio));
  EXPECT_TRUE(ConsumeNumericFlag(&args.argc, args.argv(), "port", &port));
  EXPECT_FALSE(ConsumeNumericFlag(&args.argc, args.argv(), "absent", &absent));
  EXPECT_EQ(count, 12);
  EXPECT_EQ(seed, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(ratio, -2.5e-3);
  EXPECT_EQ(port, 8080);
  EXPECT_EQ(absent, 7);
  ASSERT_EQ(args.argc, 2);
  EXPECT_STREQ(args.argv()[1], "cmd");
  EXPECT_EQ(args.argv()[2], nullptr);
}

TEST(FlagDeathTest, MalformedNumericFlagExitsTwoNamingTheFlag) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--count=", "--count"},        {"--count=12x", "--count"},
      {"--count=1.5", "--count"},     {"--port=99999999999", "--port"},
      {"--seed=-1", "--seed"},        {"--ratio=1e999", "--ratio"},
      {"--ratio=nan", "--ratio"},     {"--count= 3", "--count"},
  };
  for (const auto& [flag, name] : bad) {
    EXPECT_EXIT(
        {
          Argv args({flag});
          int64_t count = 0;
          uint64_t seed = 0;
          double ratio = 0.0;
          int port = 0;
          ConsumeNumericFlag(&args.argc, args.argv(), "count", &count);
          ConsumeNumericFlag(&args.argc, args.argv(), "seed", &seed);
          ConsumeNumericFlag(&args.argc, args.argv(), "ratio", &ratio);
          ConsumeNumericFlag(&args.argc, args.argv(), "port", &port);
          std::exit(0);
        },
        ::testing::ExitedWithCode(2), "invalid value for " + name)
        << flag;
  }
}

TEST(FlagTest, ListSplitterAndDatasetLookup) {
  EXPECT_EQ(SplitCsvList("a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitCsvList("").empty());
  const auto stock = ParseDatasetName("Stock");
  ASSERT_TRUE(stock.ok());
  EXPECT_EQ(stock.value(), data::DatasetId::kStock);
  EXPECT_EQ(ParseDatasetName("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDatasetName("stock").status().code(),
            StatusCode::kInvalidArgument);
  const auto list = ParseDatasetList("Stock,DLG");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list.value(),
            (std::vector<data::DatasetId>{data::DatasetId::kStock,
                                          data::DatasetId::kDlg}));
}

/// Returns the value of a global counter (0 when it does not exist yet).
int64_t CounterValue(const std::string& name) {
  return obs::MetricRegistry::Global().GetCounter(name).value();
}

/// Bitwise equality of two cell lists' names and scores.
void ExpectScoresBitIdentical(const std::vector<core::MethodRunResult>& a,
                              const std::vector<core::MethodRunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].method, b[i].method);
    EXPECT_EQ(a[i].dataset, b[i].dataset);
    ASSERT_EQ(a[i].scores.size(), b[i].scores.size()) << i;
    for (size_t j = 0; j < a[i].scores.size(); ++j) {
      const auto& [measure, score] = a[i].scores[j];
      const auto& [other_measure, other_score] = b[i].scores[j];
      EXPECT_EQ(measure, other_measure);
      EXPECT_EQ(std::memcmp(&score.mean, &other_score.mean, sizeof(double)), 0)
          << i << " " << measure;
      EXPECT_EQ(std::memcmp(&score.std, &other_score.std, sizeof(double)), 0)
          << i << " " << measure;
    }
  }
}

TEST(GridReplayTest, SecondRunReplaysCheckpointsBitForBit) {
  BenchConfig config;
  config.out_dir = "/tmp/tsg_bench_replay_test";
  config.scale = 0.31;  // Unique checkpoint key for this test.
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(config.out_dir);
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};

  const auto grid = RunGrid(config, methods, datasets);
  ASSERT_FALSE(grid.cells.empty());
  EXPECT_TRUE(grid.failures.empty());
  const std::string summary = ReadWholeFile(GridSummaryPath(config));

  // A rerun over the finished grid computes nothing: every cell, wall-clock
  // fit time included, comes back from its checkpoint bit for bit.
  const int64_t computed_before = CounterValue("grid.cells.computed");
  const int64_t resumed_before = CounterValue("grid.cells.resumed");
  const auto replayed = RunGrid(config, methods, datasets);
  EXPECT_EQ(CounterValue("grid.cells.computed"), computed_before);
  EXPECT_EQ(CounterValue("grid.cells.resumed"), resumed_before + 1);
  EXPECT_TRUE(replayed.failures.empty());
  ExpectScoresBitIdentical(replayed.cells, grid.cells);
  for (size_t i = 0; i < grid.cells.size() && i < replayed.cells.size(); ++i) {
    EXPECT_EQ(std::memcmp(&replayed.cells[i].fit_seconds, &grid.cells[i].fit_seconds,
                          sizeof(double)),
              0)
        << i;
  }
  EXPECT_EQ(ReadWholeFile(GridSummaryPath(config)), summary);
  std::filesystem::remove_all(config.out_dir);
}

/// `doc` with the first match of `pattern` replaced by `replacement`.
std::string ReplaceFirst(const std::string& doc, const std::string& pattern,
                         const std::string& replacement) {
  return std::regex_replace(doc, std::regex(pattern), replacement,
                            std::regex_constants::format_first_only);
}

// A checkpoint with a malformed number is not replayed: exactly that cell is
// recomputed, and the summary matches the clean run byte for byte.
TEST(GridReplayTest, MalformedCheckpointNumberRecomputesOnlyThatCell) {
  BenchConfig config;
  config.out_dir = "/tmp/tsg_bench_corrupt_ckpt";
  config.scale = 0.33;  // Unique checkpoint key for this test.
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(config.out_dir);
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg,
                                                 data::DatasetId::kStock};
  ASSERT_TRUE(RunGrid(config, methods, datasets).failures.empty());
  const std::string clean_summary = ReadWholeFile(GridSummaryPath(config));
  const std::string ckpt = CheckpointPath(config, "TimeVAE", "DLG");

  // The first measure's mean as a string, as a bare token (a syntax error) and
  // as null; then a checkpoint without its fit time.
  const std::vector<std::pair<std::string, std::string>> edits = {
      {"\"mean\":[^,]*", "\"mean\":\"0.5x\""},
      {"\"mean\":[^,]*", "\"mean\":0.5x"},
      {"\"mean\":[^,]*", "\"mean\":null"},
      {",\"fit_seconds\":[^}]*", ""},
  };
  for (const auto& [pattern, replacement] : edits) {
    const std::string valid = ReadWholeFile(ckpt);
    const std::string edited = ReplaceFirst(valid, pattern, replacement);
    ASSERT_NE(edited, valid) << replacement;
    ASSERT_TRUE(io::WriteFileAtomic(ckpt, edited).ok());

    const int64_t computed_before = CounterValue("grid.cells.computed");
    const int64_t resumed_before = CounterValue("grid.cells.resumed");
    ASSERT_TRUE(RunGrid(config, methods, datasets).failures.empty());
    EXPECT_EQ(CounterValue("grid.cells.computed"), computed_before + 1) << edited;
    EXPECT_EQ(CounterValue("grid.cells.resumed"), resumed_before + 1) << edited;
    EXPECT_EQ(ReadWholeFile(GridSummaryPath(config)), clean_summary) << edited;
  }
  std::filesystem::remove_all(config.out_dir);
}

// ---- Fault injection (ISSUE acceptance): a method whose training loss goes NaN
// must surface as a per-cell error record, while every other cell of the grid
// matches a clean run bit-for-bit. ----

/// Goes through the real GuardedStep path with a NaN loss, exactly as a diverged
/// training run would.
class FaultyNaNMethod : public core::TsgMethod {
 public:
  Status Fit(const core::Dataset& train, const core::FitOptions& options) override {
    (void)train;
    (void)options;
    ag::Var w = ag::Var::Parameter(linalg::Matrix(1, 1));
    nn::Sgd opt({w}, 0.1);
    linalg::Matrix poison(1, 1);
    poison(0, 0) = std::numeric_limits<double>::quiet_NaN();
    const ag::Var loss = ag::Mul(w, ag::Var::Constant(poison));
    return nn::GuardedStep(opt, loss, 5.0, {"FaultyNaN", "train", 3});
  }
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override {
    (void)count;
    (void)rng;
    return {};
  }
  std::string name() const override { return "FaultyNaN"; }
};

TEST(GridFaultToleranceTest, NanLossBecomesCellErrorAndOtherCellsMatchCleanRun) {
  methods::RegisterMethod("FaultyNaN",
                          [] { return std::make_unique<FaultyNaNMethod>(); });
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};

  BenchConfig clean;
  clean.scale = 0.2;
  clean.out_dir = "/tmp/tsg_bench_fault_clean";
  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::create_directories(clean.out_dir);
  const auto clean_grid = RunGrid(clean, {"TimeVAE"}, datasets);
  ASSERT_TRUE(clean_grid.failures.empty());
  ASSERT_FALSE(clean_grid.cells.empty());

  BenchConfig faulty = clean;
  faulty.out_dir = "/tmp/tsg_bench_fault_injected";
  std::filesystem::remove_all(faulty.out_dir);
  std::filesystem::create_directories(faulty.out_dir);
  const auto grid = RunGrid(faulty, {"TimeVAE", "FaultyNaN"}, datasets);

  // The injected cell failed, with full method/phase/epoch context.
  ASSERT_EQ(grid.failures.size(), 1u);
  EXPECT_EQ(grid.failures[0].method, "FaultyNaN");
  EXPECT_NE(grid.failures[0].error.find("NUMERICAL_ERROR"), std::string::npos)
      << grid.failures[0].error;
  EXPECT_NE(grid.failures[0].error.find("non-finite loss"), std::string::npos)
      << grid.failures[0].error;
  EXPECT_NE(grid.failures[0].error.find("epoch 3"), std::string::npos)
      << grid.failures[0].error;

  // Every healthy cell is bit-identical to the clean run.
  ExpectScoresBitIdentical(grid.cells, clean_grid.cells);

  // The figures rank the partial grid instead of aborting: no dataset has
  // both methods' cells, and the ranking names DLG.
  const core::RankingAnalysis analysis(grid.cells, {"TimeVAE", "FaultyNaN"});
  EXPECT_TRUE(analysis.datasets().empty());
  EXPECT_EQ(analysis.RenderDropped(),
            "Not ranked: DLG (no finished cell for FaultyNaN)\n");

  // The summary artifact records both cells.
  const std::string summary = ReadWholeFile(GridSummaryPath(faulty));
  EXPECT_NE(summary.find("\"status\":\"error\""), std::string::npos) << summary;
  EXPECT_NE(summary.find("\"status\":\"ok\""), std::string::npos) << summary;

  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::remove_all(faulty.out_dir);
}

// ---- Kill/resume (ISSUE acceptance): a grid interrupted after some cells and
// restarted must produce a byte-identical summary artifact, without recomputing
// the completed cells. ----

TEST(GridResumeTest, InterruptedGridResumesByteIdentical) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg,
                                                 data::DatasetId::kStock};

  BenchConfig clean;
  clean.scale = 0.2;
  clean.out_dir = "/tmp/tsg_bench_resume_clean";
  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::create_directories(clean.out_dir);
  const auto clean_grid = RunGrid(clean, methods, datasets);
  ASSERT_TRUE(clean_grid.failures.empty());

  // Simulate a run killed after completing only the first dataset's cell: the
  // checkpoint for (TimeVAE, dlg) lands on disk, the rest never runs.
  BenchConfig resumed = clean;
  resumed.out_dir = "/tmp/tsg_bench_resume_killed";
  std::filesystem::remove_all(resumed.out_dir);
  std::filesystem::create_directories(resumed.out_dir);
  const auto partial = RunGrid(resumed, methods, {data::DatasetId::kDlg});
  ASSERT_TRUE(partial.failures.empty());
  ASSERT_FALSE(partial.cells.empty());

  // Restart with the full grid: the completed cell loads from its checkpoint.
  const auto full = RunGrid(resumed, methods, datasets);
  ASSERT_TRUE(full.failures.empty());
  ExpectScoresBitIdentical(full.cells, clean_grid.cells);

  // The checkpointed cell was not recomputed: its wall-clock fit time survives
  // the checkpoint round trip bit-for-bit (a recompute would give a new timing).
  for (const auto& cell : full.cells) {
    if (cell.dataset == partial.cells.front().dataset) {
      EXPECT_EQ(std::memcmp(&cell.fit_seconds, &partial.cells.front().fit_seconds,
                            sizeof(double)),
                0);
    }
  }

  // The summary artifact is byte-identical to the uninterrupted run's.
  const std::string clean_summary = ReadWholeFile(GridSummaryPath(clean));
  const std::string resumed_summary = ReadWholeFile(GridSummaryPath(resumed));
  ASSERT_FALSE(clean_summary.empty());
  EXPECT_EQ(clean_summary, resumed_summary);

  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::remove_all(resumed.out_dir);
}

// ---- Sharded execution: lease-claimed workers and the supervisor merge must
// reproduce the single-process grid byte for byte, reclaim cells whose owner
// died, and surface error cells through the merge. ----

/// The lease path the grid sweep uses for a cell: its checkpoint path + ".lease".
std::string LeasePathFor(const BenchConfig& config, const std::string& method,
                         const std::string& dataset) {
  return CheckpointPath(config, method, dataset) + ".lease";
}

/// A token whose pid is guaranteed dead on this host: a reaped fork child.
std::string DeadOwnerToken() {
  const pid_t child = fork();
  EXPECT_GE(child, 0);
  if (child == 0) _exit(0);
  int wstatus = 0;
  EXPECT_EQ(waitpid(child, &wstatus, 0), child);
  char host[256] = {};
  EXPECT_EQ(gethostname(host, sizeof(host) - 1), 0);
  return std::string(host) + ":" + std::to_string(child) + ":dead";
}

TEST(ShardedGridTest, WorkerPlusStrictMergeMatchesSingleProcessByteForByte) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg,
                                                 data::DatasetId::kStock};
  BenchConfig clean;
  clean.scale = 0.2;
  clean.out_dir = "/tmp/tsg_shard_clean";
  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::create_directories(clean.out_dir);
  const auto clean_grid = RunGrid(clean, methods, datasets);
  ASSERT_TRUE(clean_grid.failures.empty());

  BenchConfig sharded = clean;
  sharded.out_dir = "/tmp/tsg_shard_worker";
  std::filesystem::remove_all(sharded.out_dir);
  std::filesystem::create_directories(sharded.out_dir);
  ShardOptions options;
  options.worker_label = "test-shard";
  const auto completed = RunGridShard(sharded, methods, datasets, options);
  ASSERT_TRUE(completed.ok()) << completed.status().ToString();
  EXPECT_EQ(completed.value().computed, 2);
  ExpectScoresBitIdentical(completed.value().cells, clean_grid.cells);
  const std::string clean_summary = ReadWholeFile(GridSummaryPath(clean));
  ASSERT_FALSE(clean_summary.empty());
  EXPECT_EQ(ReadWholeFile(GridSummaryPath(sharded)), clean_summary);

  // Strict merge: every cell must come from a worker checkpoint.
  std::filesystem::remove(GridSummaryPath(sharded));
  MergeOptions merge_options;
  merge_options.compute_missing = false;
  const auto merged = MergeGridShards(sharded, methods, datasets, merge_options);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectScoresBitIdentical(merged.value().cells, clean_grid.cells);
  EXPECT_EQ(merged.value().computed, 0);
  EXPECT_EQ(ReadWholeFile(GridSummaryPath(sharded)), clean_summary);

  // An overlapping second worker finds every cell checkpointed: zero computed.
  const auto again = RunGridShard(sharded, methods, datasets, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().computed, 0);

  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::remove_all(sharded.out_dir);
}

TEST(ShardedGridTest, DeadOwnersLeaseIsStolenAndCellReclaimed) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_shard_reclaim";
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(CheckpointDir(config));

  // A worker died mid-cell: its lease survives, no checkpoint exists.
  const std::string lease = LeasePathFor(config, "TimeVAE", "DLG");
  ASSERT_TRUE(io::AcquireLease(lease, DeadOwnerToken()).value());

  const int64_t reclaimed_before = CounterValue("grid.cells.reclaimed");
  const int64_t stolen_before = CounterValue("grid.shard.leases.stolen");
  ShardOptions options;
  options.worker_label = "test-reclaim";
  const auto completed = RunGridShard(config, methods, datasets, options);
  ASSERT_TRUE(completed.ok()) << completed.status().ToString();
  EXPECT_EQ(completed.value().computed, 1);
  EXPECT_EQ(CounterValue("grid.cells.reclaimed"), reclaimed_before + 1);
  EXPECT_EQ(CounterValue("grid.shard.leases.stolen"), stolen_before + 1);
  EXPECT_FALSE(std::filesystem::exists(lease));

  std::filesystem::remove_all(config.out_dir);
}

// The interleaving that made ci_sharded_grid.sh flaky: survivor A breaks the
// dead owner's lease, survivor B's plain claim takes the freed lease before A
// re-acquires it, and B computes the cell. The reclaim is counted at A's
// break, exactly once.
TEST(ShardedGridTest, ReclaimIsCountedWhenAnotherWorkerWinsTheReacquire) {
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_shard_reclaim_race";
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(CheckpointDir(config));
  const std::string lease = LeasePathFor(config, "TimeVAE", "DLG");
  ASSERT_TRUE(io::AcquireLease(lease, DeadOwnerToken()).value());

  const int64_t reclaimed_before = CounterValue("grid.cells.reclaimed");
  const int64_t stolen_before = CounterValue("grid.shard.leases.stolen");
  ASSERT_TRUE(BreakDeadCellLease(config, "TimeVAE", "DLG", 300.0).value());
  // Survivor B: same host, live pid, its own nonce.
  const std::string survivor_b = io::LeaseOwnerToken() + "-b";
  ASSERT_TRUE(io::AcquireLease(lease, survivor_b).value());
  EXPECT_FALSE(io::AcquireLease(lease, io::LeaseOwnerToken()).value());
  // B's lease is live, so no third survivor breaks it or counts again.
  EXPECT_FALSE(BreakDeadCellLease(config, "TimeVAE", "DLG", 300.0).value());
  EXPECT_EQ(CounterValue("grid.cells.reclaimed"), reclaimed_before + 1);
  EXPECT_EQ(CounterValue("grid.shard.leases.stolen"), stolen_before + 1);
  EXPECT_TRUE(io::ReleaseLease(lease, survivor_b).ok());

  std::filesystem::remove_all(config.out_dir);
}

TEST(ShardedGridTest, LiveLeaseTimesOutWorkerAndBlocksMerge) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_shard_live";
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(CheckpointDir(config));

  // Our own (live) pid holds the cell, as a healthy concurrent worker would.
  const std::string lease = LeasePathFor(config, "TimeVAE", "DLG");
  ASSERT_TRUE(io::AcquireLease(lease, io::LeaseOwnerToken()).value());

  ShardOptions options;
  options.worker_label = "test-live";
  options.max_wait_seconds = 0.2;
  const auto completed = RunGridShard(config, methods, datasets, options);
  ASSERT_FALSE(completed.ok());
  EXPECT_EQ(completed.status().code(), StatusCode::kFailedPrecondition);

  MergeOptions merge_options;
  const auto merged = MergeGridShards(config, methods, datasets, merge_options);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kFailedPrecondition);

  std::filesystem::remove_all(config.out_dir);
}

// A malformed checkpoint is not a finished cell: a worker recomputes exactly
// that cell, so the strict merge then finds every cell and writes RunGrid's
// summary bytes.
TEST(ShardedGridTest, WorkerRecomputesMalformedCheckpointForTheStrictMerge) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg,
                                                 data::DatasetId::kStock};
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_shard_malformed";
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(config.out_dir);
  ASSERT_TRUE(RunGrid(config, methods, datasets).failures.empty());
  const std::string clean_summary = ReadWholeFile(GridSummaryPath(config));
  ASSERT_FALSE(clean_summary.empty());
  const std::string ckpt = CheckpointPath(config, "TimeVAE", "DLG");
  const std::string valid = ReadWholeFile(ckpt);
  const std::string edited = ReplaceFirst(valid, "\"mean\":[^,]*", "\"mean\":0.5x");
  ASSERT_NE(edited, valid);
  ASSERT_TRUE(io::WriteFileAtomic(ckpt, edited).ok());
  std::filesystem::remove(GridSummaryPath(config));

  ShardOptions options;
  options.worker_label = "test-malformed";
  const auto worker = RunGridShard(config, methods, datasets, options);
  ASSERT_TRUE(worker.ok()) << worker.status().ToString();
  EXPECT_EQ(worker.value().computed, 1);
  EXPECT_EQ(ReadWholeFile(GridSummaryPath(config)), clean_summary);

  std::filesystem::remove(GridSummaryPath(config));
  MergeOptions strict;
  strict.compute_missing = false;
  const auto merged = MergeGridShards(config, methods, datasets, strict);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value().computed, 0);
  EXPECT_EQ(ReadWholeFile(GridSummaryPath(config)), clean_summary);

  std::filesystem::remove_all(config.out_dir);
}

TEST(ShardedGridTest, StopHookStopsBetweenCellsAndTheRerunResumes) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg,
                                                 data::DatasetId::kStock};
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_shard_stop";
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(config.out_dir);

  // Serial cells: the hook answers "stop" when asked before the second cell.
  int polls = 0;
  ShardOptions options;
  options.worker_label = "test-stop";
  options.should_stop = [&polls] { return ++polls > 1; };
  base::ThreadPool::Global().SetMaxParallelism(1);
  const auto stopped = RunGridShard(config, methods, datasets, options);
  base::ThreadPool::Global().SetMaxParallelism(0);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(std::filesystem::exists(CheckpointPath(config, "TimeVAE", "DLG")));
  EXPECT_FALSE(std::filesystem::exists(GridSummaryPath(config)));
  EXPECT_FALSE(std::filesystem::exists(LeasePathFor(config, "TimeVAE", "Stock")));

  options.should_stop = nullptr;
  const auto resumed = RunGridShard(config, methods, datasets, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().computed, 1);
  EXPECT_TRUE(std::filesystem::exists(GridSummaryPath(config)));

  std::filesystem::remove_all(config.out_dir);
}

TEST(ShardedGridTest, StrictMergeFailsOnMissingCheckpoint) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_shard_missing";
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(config.out_dir);

  MergeOptions options;
  options.compute_missing = false;
  const auto merged = MergeGridShards(config, methods, datasets, options);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kNotFound);

  std::filesystem::remove_all(config.out_dir);
}

TEST(ShardedGridTest, MergeComputesMissingCellsAndMatchesCleanRun) {
  const std::vector<std::string> methods = {"TimeVAE"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg,
                                                 data::DatasetId::kStock};
  BenchConfig clean;
  clean.scale = 0.2;
  clean.out_dir = "/tmp/tsg_merge_clean";
  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::create_directories(clean.out_dir);
  const auto clean_grid = RunGrid(clean, methods, datasets);
  ASSERT_TRUE(clean_grid.failures.empty());

  // No worker ran at all: the supervisor computes both cells itself, two at
  // once on a 2-wide pool. A dangling dead lease on one cell must not stop it.
  BenchConfig merged_config = clean;
  merged_config.out_dir = "/tmp/tsg_merge_computes";
  std::filesystem::remove_all(merged_config.out_dir);
  std::filesystem::create_directories(CheckpointDir(merged_config));
  ASSERT_TRUE(io::AcquireLease(LeasePathFor(merged_config, "TimeVAE", "DLG"),
                               DeadOwnerToken())
                  .value());

  const int64_t reclaimed_before = CounterValue("grid.cells.reclaimed");
  const int64_t computed_before = CounterValue("grid.cells.computed");
  MergeOptions options;
  options.compute_missing = true;
  base::ThreadPool::Global().SetMaxParallelism(2);
  const auto merged = MergeGridShards(merged_config, methods, datasets, options);
  base::ThreadPool::Global().SetMaxParallelism(0);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(CounterValue("grid.cells.reclaimed"), reclaimed_before + 1);
  EXPECT_EQ(CounterValue("grid.cells.computed"), computed_before + 2);
  EXPECT_EQ(merged.value().computed, 2);
  EXPECT_FALSE(std::filesystem::exists(
      LeasePathFor(merged_config, "TimeVAE", "DLG")));

  // Scores are bitwise RunGrid's; only the wall-clock fit times differ.
  ExpectScoresBitIdentical(merged.value().cells, clean_grid.cells);
  const std::string clean_summary = ReadWholeFile(GridSummaryPath(clean));
  const std::string merged_summary = ReadWholeFile(GridSummaryPath(merged_config));
  ASSERT_FALSE(clean_summary.empty());
  EXPECT_EQ(clean_summary, merged_summary);

  std::filesystem::remove_all(clean.out_dir);
  std::filesystem::remove_all(merged_config.out_dir);
}

/// An error message that needs escaping in JSON: a comma, double quotes, a
/// backslash, a newline, a tab and a non-ASCII character.
constexpr const char* kEscapedError = "loss \"nan\", at C:\\runs\nepoch\t3 (\u00b5)";

/// Fails its fit with kEscapedError. name() stays "FaultyNaN", so the cell is
/// recorded under its registry name, not under name().
class EscapedErrorMethod : public FaultyNaNMethod {
 public:
  Status Fit(const core::Dataset& train, const core::FitOptions& options) override {
    (void)train;
    (void)options;
    return Status::NumericalError(kEscapedError);
  }
};

// The error cell round-trips through its checkpoint: the strict merge, which
// only replays, reports the worker's CellError and writes the worker's summary.
TEST(ShardedGridTest, MergeCarriesErrorCellsFromWorkerCheckpoints) {
  static const bool registered = [] {
    methods::RegisterMethod("ShardFaulty",
                            [] { return std::make_unique<EscapedErrorMethod>(); });
    return true;
  }();
  (void)registered;

  const std::vector<std::string> methods = {"TimeVAE", "ShardFaulty"};
  const std::vector<data::DatasetId> datasets = {data::DatasetId::kDlg};
  BenchConfig config;
  config.scale = 0.2;
  config.out_dir = "/tmp/tsg_shard_errors";
  std::filesystem::remove_all(config.out_dir);
  std::filesystem::create_directories(config.out_dir);

  ShardOptions options;
  options.worker_label = "test-errors";
  const auto completed = RunGridShard(config, methods, datasets, options);
  ASSERT_TRUE(completed.ok()) << completed.status().ToString();
  EXPECT_EQ(completed.value().computed, 2);  // The failing cell still checkpoints.
  ASSERT_EQ(completed.value().failures.size(), 1u);
  const CellError& computed = completed.value().failures[0];
  EXPECT_NE(computed.error.find(kEscapedError), std::string::npos) << computed.error;
  const std::string summary = ReadWholeFile(GridSummaryPath(config));
  EXPECT_NE(summary.find("\"status\":\"error\""), std::string::npos) << summary;
  EXPECT_NE(summary.find("\"status\":\"ok\""), std::string::npos) << summary;

  std::filesystem::remove(GridSummaryPath(config));
  MergeOptions merge_options;
  merge_options.compute_missing = false;
  const auto merged = MergeGridShards(config, methods, datasets, merge_options);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged.value().failures.size(), 1u);
  EXPECT_EQ(merged.value().failures[0].method, "ShardFaulty");
  EXPECT_EQ(merged.value().failures[0].dataset, computed.dataset);
  EXPECT_EQ(merged.value().failures[0].error, computed.error);
  ASSERT_FALSE(merged.value().cells.empty());
  EXPECT_EQ(ReadWholeFile(GridSummaryPath(config)), summary);

  std::filesystem::remove_all(config.out_dir);
}

}  // namespace
}  // namespace tsg::bench
