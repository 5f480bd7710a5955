// Reproduces Figure 5: the main TSG benchmarking grid — ten methods x ten datasets
// across the measure suite (DS, PS, C-FID, MDD, ACD, SD, KD, ED, DTW) plus the
// training-time row bucketed into the paper's four segments. One table is printed
// per measure (rows = methods, columns = datasets) and the full long-format grid is
// written to <out>/fig5_grid.csv.

#include <cstdio>

#include "bench_util.h"
#include "io/csv.h"
#include "io/table.h"
#include "methods/factory.h"

int main(int argc, char** argv) {
  tsg::bench::ParseBenchFlags(&argc, argv);
  if (!tsg::bench::RequireNoUnknownFlags(argc, argv, "bench_fig5_main [--metrics_out=<path>]")) {
    return 2;
  }
  const tsg::bench::BenchConfig config = tsg::bench::LoadConfig();
  const auto& methods = tsg::methods::AllMethodNames();
  const auto datasets = tsg::data::AllDatasets();

  const auto grid = tsg::bench::RunGrid(config, methods, datasets);
  tsg::bench::ReportFailures(grid);
  const auto& rows = grid.rows;
  const auto measures = tsg::bench::DistinctMeasures(rows);
  const auto dataset_names = tsg::bench::DistinctDatasets(rows);

  std::printf("=== Figure 5: TSG benchmarking (scale=%.2f; lower is better) ===\n",
              config.scale);

  auto find = [&rows](const std::string& method, const std::string& dataset,
                      const std::string& measure) -> const tsg::bench::GridRow* {
    for (const auto& row : rows) {
      if (row.method == method && row.dataset == dataset && row.measure == measure) {
        return &row;
      }
    }
    return nullptr;
  };

  for (const std::string& measure : measures) {
    std::printf("\n--- %s ---\n", measure.c_str());
    std::vector<std::string> header = {"Method"};
    for (const auto& d : dataset_names) header.push_back(d);
    tsg::io::Table table(header);
    for (const std::string& method : methods) {
      std::vector<std::string> cells = {method};
      for (const auto& dataset : dataset_names) {
        const auto* row = find(method, dataset, measure);
        cells.push_back(row != nullptr ? tsg::io::Table::Num(row->mean, 3) : "-");
      }
      table.AddRow(cells);
    }
    table.Print();
  }

  // Training-time row (M8), bucketed as in the figure's bottom row.
  std::printf("\n--- Training time (M8) ---\n");
  std::vector<std::string> header = {"Method"};
  for (const auto& d : dataset_names) header.push_back(d);
  tsg::io::Table time_table(header);
  for (const std::string& method : methods) {
    std::vector<std::string> cells = {method};
    for (const auto& dataset : dataset_names) {
      const auto* row = find(method, dataset, measures[0]);
      if (row == nullptr) {
        cells.push_back("-");
        continue;
      }
      cells.push_back(tsg::io::Table::Num(row->fit_seconds, 1) + "s (" +
                      tsg::core::Harness::TrainingTimeBucket(row->fit_seconds) + ")");
    }
    time_table.AddRow(cells);
  }
  time_table.Print();

  // Long-format CSV for downstream plotting.
  std::vector<std::vector<std::string>> csv;
  csv.push_back({"method", "dataset", "measure", "mean", "stddev", "fit_seconds"});
  for (const auto& row : rows) {
    csv.push_back({row.method, row.dataset, row.measure, std::to_string(row.mean),
                   std::to_string(row.stddev), std::to_string(row.fit_seconds)});
  }
  const std::string csv_path = config.out_dir + "/fig5_grid.csv";
  if (tsg::io::WriteCsvRows(csv_path, csv).ok()) {
    std::printf("\nGrid written to %s\n", csv_path.c_str());
  }

  std::printf(
      "\nExpected shape (paper): VAE-family (TimeVQVAE, TimeVAE, LS4) plus RTSGAN\n"
      "and COSCI-GAN lead; VAE methods dominate ED/DTW and train fastest;\n"
      "FourierFlow leads ACD; RGAN trails; GT-GAN is the slowest trainer.\n");
  tsg::bench::WriteMetricsSnapshot();
  return 0;
}
