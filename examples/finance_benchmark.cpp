// Domain example: benchmarking TSG methods for financial data augmentation.
// The intro scenario: a quant team wants synthetic daily price windows to augment a
// small Stock history. This example compares a GAN (RGAN), a flow (FourierFlow — the
// paper's recommendation when autocorrelation matters, e.g. for forecasting), and a
// VAE (TimeVAE — the recommended starting point), then ranks them with the same
// statistics TSGBench uses (within-block ranks across measures).

#include <cstdio>

#include "core/harness.h"
#include "core/preprocess.h"
#include "core/ranking.h"
#include "data/simulators.h"
#include "io/table.h"
#include "methods/factory.h"

int main() {
  tsg::data::SimulatorOptions sim;
  sim.scale = 0.05;
  const auto raw = tsg::data::Simulate(tsg::data::DatasetId::kStock, sim);
  const auto data = tsg::core::Preprocess(raw, tsg::core::PreprocessOptions());
  std::printf("Stock windows: %lld train / %lld test (l=%lld, N=%lld)\n\n",
              static_cast<long long>(data.train.num_samples()),
              static_cast<long long>(data.test.num_samples()),
              static_cast<long long>(data.train.seq_len()),
              static_cast<long long>(data.train.num_features()));

  const std::vector<std::string> contenders = {"RGAN", "FourierFlow", "TimeVAE"};

  tsg::core::HarnessOptions harness_options;
  harness_options.fit.epoch_scale = 0.5;
  harness_options.stochastic_repeats = 3;
  harness_options.embedder.epochs = 8;
  tsg::core::Harness harness(harness_options);

  std::vector<tsg::core::MethodRunResult> cells;
  tsg::io::Table table({"Method", "Fit(s)", "DS", "PS", "C-FID", "MDD", "ACD", "SD",
                        "KD", "ED", "DTW"});

  for (const std::string& name : contenders) {
    auto method = tsg::methods::CreateMethod(name);
    TSG_CHECK(method.ok());
    const auto run = harness.RunMethod(*method.value(), data.train, data.test);
    if (!run.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                   run.status().ToString().c_str());
      continue;
    }
    const auto& result = run.value();
    std::vector<std::string> row = {name, tsg::io::Table::Num(result.fit_seconds, 1)};
    for (const auto& [measure, summary] : result.scores) {
      row.push_back(tsg::io::Table::Num(summary.mean, 3));
    }
    table.AddRow(row);
    cells.push_back(result);
  }
  table.Print();

  // Rank per measure (1 = best), then average — the Figure 1 computation in small.
  const tsg::core::RankingAnalysis analysis(cells, contenders);
  if (analysis.datasets().empty()) {
    std::fprintf(stderr, "%s", analysis.RenderDropped().c_str());
    return 1;
  }
  const tsg::linalg::Matrix ranks = analysis.RankPerDataset();
  std::printf("\nAverage rank across measures (1 = best):\n");
  for (size_t i = 0; i < contenders.size(); ++i) {
    std::printf("  %-12s %.2f\n", contenders[i].c_str(),
                ranks(0, static_cast<int64_t>(i)));
  }
  std::printf("\nPer the paper's recommendations: start from the VAE family, reach\n"
              "for FourierFlow when ACD (autocorrelation fidelity) drives the use\n"
              "case, and expect vanilla recurrent GANs to trail.\n");
  return 0;
}
