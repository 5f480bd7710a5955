// Domain example: the paper's §6.5 workflow for a *new* dataset.
//   1. Profile the dataset's statistics (size, dimensionality, periodicity).
//   2. Ask the recommendation engine which methods/measures to prioritize.
//   3. Auto-tune the top recommendation with the successive-halving tuner
//      (the paper's "automatic tuning" future-work item).
//   4. Persist the trained parameters for reuse.

#include <cstdio>

#include "core/measures.h"
#include "core/preprocess.h"
#include "core/recommend.h"
#include "core/tune.h"
#include "data/simulators.h"
#include "methods/factory.h"
#include "methods/ls4.h"

int main() {
  // The "new" dataset: simulated EEG (l=128, N=14 — high-dimensional, periodic).
  tsg::data::SimulatorOptions sim;
  sim.scale = 0.012;
  const auto raw = tsg::data::Simulate(tsg::data::DatasetId::kEeg, sim);
  const auto data = tsg::core::Preprocess(raw, tsg::core::PreprocessOptions());

  // 1. Profile.
  const auto profile = tsg::core::ProfileDataset(data.train);
  std::printf("Profile: R=%lld l=%lld N=%lld mean|ACF|=%.2f small=%d highdim=%d\n\n",
              static_cast<long long>(profile.num_samples),
              static_cast<long long>(profile.seq_len),
              static_cast<long long>(profile.num_features), profile.mean_abs_acf,
              profile.small_data, profile.high_dimensional);

  // 2. Recommend for a forecasting-oriented application.
  const auto rec =
      tsg::core::Recommend(profile, tsg::core::ApplicationGoal::kForecasting);
  std::printf("Recommended methods (in order):");
  for (const auto& m : rec.methods) std::printf(" %s", m.c_str());
  std::printf("\nRecommended measures:");
  for (const auto& m : rec.measures) std::printf(" %s", m.c_str());
  std::printf("\nRationale:\n");
  for (const auto& line : rec.rationale) std::printf("  - %s\n", line.c_str());

  // 3. Auto-tune the first recommendation on an MDD objective.
  const std::string chosen = rec.methods[0];
  std::printf("\nTuning %s with successive halving...\n", chosen.c_str());
  auto factory = [&chosen] {
    return std::move(tsg::methods::CreateMethod(chosen).value());
  };
  auto objective = [](const tsg::core::Dataset& reference,
                      const tsg::core::Dataset& generated) {
    tsg::core::MeasureContext ctx;
    ctx.real = &reference;
    ctx.generated = &generated;
    return tsg::core::MarginalDistributionDifference().Evaluate(ctx).value();
  };
  tsg::core::TuneOptions tune_options;
  tune_options.rungs = 2;
  tune_options.initial_epoch_scale = 0.05;
  const auto tuned =
      tsg::core::TuneMethod(factory, tsg::core::DefaultCandidates(42), data.train,
                            data.test, objective, tune_options);
  for (const auto& trial : tuned.trials) std::printf("  %s\n", trial.c_str());
  std::printf("Best: %s (MDD objective %.4f)\n", tuned.best.label.c_str(),
              tuned.best_score);

  // 4. Refit the winner with a fuller budget and persist it.
  auto final_method = tsg::methods::CreateMethod(chosen).value();
  tsg::core::FitOptions final_fit = tuned.best.options;
  final_fit.epoch_scale = 0.4;
  TSG_CHECK(final_method->Fit(data.train, final_fit).ok());
  std::printf("\nRefit %s at full budget; publish its Snapshot() to the artifact\n"
              "store (store::ArtifactStore::Save, see store/artifact_store.h) to\n"
              "serve it without retraining.\n",
              chosen.c_str());
  return 0;
}
