// Reproduces Figure 8: the critical-difference analysis. A Friedman test is run over
// all (dataset, measure) blocks of the Figure 5 grid, followed by Conover post-hoc
// pairwise comparisons; methods are grouped into statistical tiers and rendered as a
// text critical-difference diagram. Replays the Figure 5 grid from its per-cell
// checkpoints when present.

#include <cstdio>

#include "bench_util.h"
#include "core/ranking.h"
#include "io/csv.h"
#include "io/table.h"
#include "methods/factory.h"

int main(int argc, char** argv) {
  tsg::bench::ParseBenchFlags(&argc, argv);
  if (!tsg::bench::RequireNoUnknownFlags(argc, argv, "bench_fig8_critical_difference [--metrics_out=<path>]")) {
    return 2;
  }
  const tsg::bench::BenchConfig config = tsg::bench::LoadConfig();
  const auto& methods = tsg::methods::AllMethodNames();
  const auto grid =
      tsg::bench::RunGrid(config, methods, tsg::data::AllDatasets());
  tsg::bench::ReportFailures(grid);
  const auto& rows = grid.rows;
  const auto measures = tsg::bench::DistinctMeasures(rows);
  const auto datasets = tsg::bench::DistinctDatasets(rows);

  tsg::core::RankingAnalysis analysis(tsg::bench::ToCells(rows, measures), methods,
                                      datasets, measures);
  const auto overall = analysis.ComputeOverall(/*alpha=*/0.05);

  std::printf("=== Figure 8: critical-difference diagram "
              "(Friedman + Conover, alpha=0.05) ===\n\n");
  std::printf("%s\n", analysis.RenderCriticalDifference(overall).c_str());

  std::printf("Conover pairwise p-values:\n");
  std::vector<std::string> header = {"vs"};
  for (const auto& m : methods) header.push_back(m);
  tsg::io::Table table(header);
  for (size_t i = 0; i < methods.size(); ++i) {
    std::vector<std::string> cells = {methods[i]};
    for (size_t j = 0; j < methods.size(); ++j) {
      cells.push_back(tsg::io::Table::Num(
          overall.conover_p(static_cast<int64_t>(i), static_cast<int64_t>(j)), 3));
    }
    table.AddRow(cells);
  }
  table.Print();

  tsg::io::WriteCsv(config.out_dir + "/fig8_conover_p.csv", methods,
                    overall.conover_p)
      .ok();

  std::printf(
      "\nExpected shape (paper): the methods separate into tiers with\n"
      "{TimeVQVAE, TimeVAE, COSCI-GAN, LS4, RTSGAN} on top, then\n"
      "{FourierFlow, AEC-GAN, TimeGAN}, then GT-GAN, with RGAN last; members\n"
      "inside the top tiers are not statistically distinguishable from each\n"
      "other but are from the lower tiers.\n");
  tsg::bench::WriteMetricsSnapshot();
  return 0;
}
