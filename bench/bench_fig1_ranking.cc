// Reproduces Figure 1: method rankings (1 = best) across the ten evaluation
// measures (left panel: per measure, averaged over datasets) and across the ten
// datasets (right panel: per dataset, averaged over measures). Replays the Figure 5
// grid from its per-cell checkpoints when present.

#include <cstdio>

#include "bench_util.h"
#include "core/ranking.h"
#include "io/csv.h"
#include "io/table.h"
#include "methods/factory.h"

int main(int argc, char** argv) {
  tsg::bench::ParseBenchFlags(&argc, argv);
  if (!tsg::bench::RequireNoUnknownFlags(argc, argv, "bench_fig1_ranking [--metrics_out=<path>]")) {
    return 2;
  }
  const tsg::bench::BenchConfig config = tsg::bench::LoadConfig();
  const auto& methods = tsg::methods::AllMethodNames();
  const auto grid =
      tsg::bench::RunGrid(config, methods, tsg::data::AllDatasets());
  tsg::bench::ReportFailures(grid);
  const tsg::core::RankingAnalysis analysis(grid.cells, methods);
  std::printf("%s", analysis.RenderDropped().c_str());
  if (analysis.datasets().empty()) {
    std::fprintf(stderr, "no dataset has a finished cell for every method\n");
    tsg::bench::WriteMetricsSnapshot();
    return 1;
  }

  const auto& measures = analysis.measures();
  const auto& datasets = analysis.datasets();

  std::printf("=== Figure 1 (left): average method rank per measure ===\n\n");
  {
    std::vector<std::string> header = {"Measure"};
    for (const auto& m : methods) header.push_back(m);
    tsg::io::Table table(header);
    const tsg::linalg::Matrix ranks = analysis.RankPerMeasure();
    for (size_t i = 0; i < measures.size(); ++i) {
      std::vector<std::string> cells = {measures[i]};
      for (size_t j = 0; j < methods.size(); ++j) {
        cells.push_back(tsg::io::Table::Num(ranks(static_cast<int64_t>(i),
                                                  static_cast<int64_t>(j)),
                                            2));
      }
      table.AddRow(cells);
    }
    table.Print();
    tsg::io::WriteCsv(config.out_dir + "/fig1_rank_per_measure.csv", methods, ranks)
        .ok();
  }

  std::printf("\n=== Figure 1 (right): average method rank per dataset ===\n\n");
  {
    std::vector<std::string> header = {"Dataset"};
    for (const auto& m : methods) header.push_back(m);
    tsg::io::Table table(header);
    const tsg::linalg::Matrix ranks = analysis.RankPerDataset();
    for (size_t i = 0; i < datasets.size(); ++i) {
      std::vector<std::string> cells = {datasets[i]};
      for (size_t j = 0; j < methods.size(); ++j) {
        cells.push_back(tsg::io::Table::Num(ranks(static_cast<int64_t>(i),
                                                  static_cast<int64_t>(j)),
                                            2));
      }
      table.AddRow(cells);
    }
    table.Print();
    tsg::io::WriteCsv(config.out_dir + "/fig1_rank_per_dataset.csv", methods, ranks)
        .ok();
  }

  std::printf(
      "\nExpected shape (paper): no single method dominates every row, but\n"
      "TimeVQVAE, TimeVAE, COSCI-GAN, RTSGAN and LS4 carry the best (lowest)\n"
      "ranks across both panels while RGAN carries the worst.\n");
  tsg::bench::WriteMetricsSnapshot();
  return 0;
}
