// tsgbench_cli — command-line driver for the benchmark library. kUsage below
// lists the subcommands and their --key=value flags; an unknown flag or a
// malformed number is a usage error (exit 2). Datasets and harness options come
// from the bench configuration (TSGBENCH_SCALE, TSGBENCH_SEED), so `run` prints
// the cell the grid computes; all numeric output is deterministic for a fixed
// TSGBENCH_SEED.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>

#include "bench_util.h"
#include "core/harness.h"
#include "core/recommend.h"
#include "data/simulators.h"
#include "io/csv.h"
#include "io/table.h"
#include "methods/factory.h"

namespace {

using tsg::core::Dataset;

constexpr const char* kUsage =
    "tsgbench_cli <command> [flags]\n"
    "  list        methods and datasets\n"
    "  run         --method=M --dataset=D\n"
    "              fit one method on one dataset and print the measure suite\n"
    "              (one Figure 5 cell, as the grid computes it)\n"
    "  evaluate    --real=a.csv --generated=b.csv --seq-len=L\n"
    "              score a generated set against a real one (CSV files of\n"
    "              windows stacked row-wise: L rows per window, N columns)\n"
    "  recommend   --dataset=D [--goal=general|classification|forecasting|\n"
    "              stats|clustering]   the §6.5 recommendation engine\n"
    "  profile     --dataset=D   a dataset's statistical profile\n"
    "TSGBENCH_SCALE and TSGBENCH_SEED set the budget and seed, as for the bench\n"
    "binaries.";

/// Every flag any subcommand reads, with its default.
struct Flags {
  std::string method;
  std::string dataset;
  std::string real;
  std::string generated;
  std::string goal = "general";
  int64_t seq_len = 0;
};

/// Prints `error` (if any) and the usage text; returns the usage exit code.
int Usage(const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "%s\n", error.c_str());
  std::fprintf(stderr, "usage: %s\n", kUsage);
  return 2;
}

int CmdList() {
  std::printf("Methods:\n");
  for (const auto& m : tsg::methods::AllMethodNames()) std::printf("  %s\n",
                                                                   m.c_str());
  std::printf("Datasets:\n");
  for (tsg::data::DatasetId id : tsg::data::AllDatasets()) {
    const auto stats = tsg::data::GetPaperStats(id);
    std::printf("  %-12s (R=%lld, l=%lld, N=%lld, %s)\n", tsg::data::DatasetName(id),
                static_cast<long long>(stats.r), static_cast<long long>(stats.l),
                static_cast<long long>(stats.n), stats.domain);
  }
  return 0;
}

int CmdRun(const Flags& flags, const tsg::bench::BenchConfig& config) {
  const auto id = tsg::bench::ParseDatasetName(flags.dataset);
  if (!id.ok()) return Usage(id.status().ToString());
  if (flags.method.empty()) return Usage("--method is required");
  auto method = tsg::methods::CreateMethod(flags.method);
  if (!method.ok()) return Usage(method.status().ToString());
  const auto data = tsg::bench::PrepareDataset(id.value(), config);
  tsg::core::Harness harness(tsg::bench::GridHarnessOptions(config));

  const auto run = harness.RunMethod(*method.value(), data.train, data.test);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  const auto& result = run.value();
  std::printf("%s on %s: fit %.1fs (%s)\n", result.method.c_str(),
              result.dataset.c_str(), result.fit_seconds,
              tsg::core::Harness::TrainingTimeBucket(result.fit_seconds));
  tsg::io::Table table({"Measure", "Score"});
  for (const auto& [measure, summary] : result.scores) {
    table.AddRow({measure, tsg::io::Table::MeanStd(summary.mean, summary.std)});
  }
  table.Print();
  return 0;
}

/// Loads stacked windows (l rows per window) from a CSV with N columns.
tsg::StatusOr<Dataset> LoadWindows(const std::string& path, int64_t seq_len,
                                   const std::string& name) {
  auto matrix = tsg::io::ReadCsv(path, /*skip_header=*/false);
  if (!matrix.ok()) return matrix.status();
  const auto& m = matrix.value();
  if (m.rows() % seq_len != 0) {
    return tsg::Status::InvalidArgument("row count is not a multiple of --seq-len");
  }
  Dataset ds;
  ds.set_name(name);
  for (int64_t start = 0; start + seq_len <= m.rows(); start += seq_len) {
    ds.Add(m.Block(start, 0, seq_len, m.cols()));
  }
  return ds;
}

int CmdEvaluate(const Flags& flags, const tsg::bench::BenchConfig& config) {
  if (flags.real.empty()) return Usage("--real is required");
  if (flags.generated.empty()) return Usage("--generated is required");
  if (flags.seq_len <= 0) {
    return Usage("--seq-len must be positive, got " + std::to_string(flags.seq_len));
  }
  auto real = LoadWindows(flags.real, flags.seq_len, "real");
  auto generated = LoadWindows(flags.generated, flags.seq_len, "generated");
  if (!real.ok() || !generated.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!real.ok() ? real.status() : generated.status()).ToString().c_str());
    return 1;
  }
  tsg::core::Harness harness(tsg::bench::GridHarnessOptions(config));
  const auto scores = harness.EvaluateGenerated(real.value(), real.value(),
                                                generated.value(), "cli");
  if (!scores.ok()) {
    std::fprintf(stderr, "%s\n", scores.status().ToString().c_str());
    return 1;
  }
  tsg::io::Table table({"Measure", "Score"});
  for (const auto& [measure, summary] : scores.value()) {
    table.AddRow({measure, tsg::io::Table::MeanStd(summary.mean, summary.std)});
  }
  table.Print();
  return 0;
}

int CmdRecommend(const Flags& flags, const tsg::bench::BenchConfig& config) {
  using tsg::core::ApplicationGoal;
  const auto id = tsg::bench::ParseDatasetName(flags.dataset);
  if (!id.ok()) return Usage(id.status().ToString());
  constexpr std::pair<const char*, ApplicationGoal> kGoals[] = {
      {"general", ApplicationGoal::kGeneral},
      {"classification", ApplicationGoal::kClassification},
      {"forecasting", ApplicationGoal::kForecasting},
      {"stats", ApplicationGoal::kStatisticalMatch},
      {"clustering", ApplicationGoal::kClustering}};
  const auto* goal = std::find_if(std::begin(kGoals), std::end(kGoals),
                                  [&](const auto& g) { return flags.goal == g.first; });
  if (goal == std::end(kGoals)) return Usage("unknown --goal: " + flags.goal);
  const auto data = tsg::bench::PrepareDataset(id.value(), config);
  const auto profile = tsg::core::ProfileDataset(data.train);

  const auto rec = tsg::core::Recommend(profile, goal->second);
  std::printf("Methods:");
  for (const auto& m : rec.methods) std::printf(" %s", m.c_str());
  std::printf("\nMeasures:");
  for (const auto& m : rec.measures) std::printf(" %s", m.c_str());
  std::printf("\nRationale:\n");
  for (const auto& line : rec.rationale) std::printf("  - %s\n", line.c_str());
  return 0;
}

int CmdProfile(const Flags& flags, const tsg::bench::BenchConfig& config) {
  const auto id = tsg::bench::ParseDatasetName(flags.dataset);
  if (!id.ok()) return Usage(id.status().ToString());
  const auto data = tsg::bench::PrepareDataset(id.value(), config);
  const auto profile = tsg::core::ProfileDataset(data.train);
  std::printf("dataset=%s R=%lld l=%lld N=%lld mean|ACF|=%.3f small_data=%d "
              "high_dimensional=%d long_sequence=%d\n",
              tsg::data::DatasetName(id.value()),
              static_cast<long long>(profile.num_samples),
              static_cast<long long>(profile.seq_len),
              static_cast<long long>(profile.num_features), profile.mean_abs_acf,
              profile.small_data, profile.high_dimensional, profile.long_sequence);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  tsg::bench::ConsumeFlagValue(&argc, argv, "method", &flags.method);
  tsg::bench::ConsumeFlagValue(&argc, argv, "dataset", &flags.dataset);
  tsg::bench::ConsumeFlagValue(&argc, argv, "real", &flags.real);
  tsg::bench::ConsumeFlagValue(&argc, argv, "generated", &flags.generated);
  tsg::bench::ConsumeFlagValue(&argc, argv, "goal", &flags.goal);
  tsg::bench::ConsumeNumericFlag(&argc, argv, "seq-len", &flags.seq_len);
  if (!tsg::bench::RequireNoUnknownFlags(argc, argv, kUsage)) return 2;
  if (argc != 2) return Usage();
  const tsg::bench::BenchConfig config = tsg::bench::LoadConfig();
  const std::string command = argv[1];
  if (command == "list") return CmdList();
  if (command == "run") return CmdRun(flags, config);
  if (command == "evaluate") return CmdEvaluate(flags, config);
  if (command == "recommend") return CmdRecommend(flags, config);
  if (command == "profile") return CmdProfile(flags, config);
  return Usage();
}
