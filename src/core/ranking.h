#ifndef TSG_CORE_RANKING_H_
#define TSG_CORE_RANKING_H_

#include <string>
#include <vector>

#include "core/harness.h"
#include "linalg/matrix.h"
#include "stats/rank_tests.h"

namespace tsg::core {

/// §6.4 ranking analysis over a grid's finished cells (Figures 1 and 8). The
/// Friedman test needs complete blocks, so only the datasets on which every
/// method has a cell are ranked; RenderDropped() names the others, so a failed
/// cell shrinks the figures instead of aborting them.
class RankingAnalysis {
 public:
  /// `methods` are the ranked methods in column order; a cell names its method
  /// as `methods` does.
  RankingAnalysis(std::vector<MethodRunResult> cells, std::vector<std::string> methods);

  /// Figure 1 (left): average rank of each method per measure, across datasets.
  /// Rows = measures, cols = methods.
  linalg::Matrix RankPerMeasure() const;

  /// Figure 1 (right): average rank of each method per dataset, across measures.
  /// Rows = datasets, cols = methods.
  linalg::Matrix RankPerDataset() const;

  /// Figure 8: Friedman test over all (dataset, measure) blocks, Conover post-hoc
  /// p-values, and the statistical tiers.
  struct Overall {
    stats::FriedmanResult friedman;
    linalg::Matrix conover_p;
    std::vector<int> tiers;
  };
  Overall ComputeOverall(double alpha = 0.05) const;

  /// Text rendering of the Figure 8 critical-difference diagram.
  std::string RenderCriticalDifference(const Overall& overall) const;

  /// One line per unranked dataset, in the cells' order, naming the methods
  /// without a cell there: "Not ranked: <dataset> (no finished cell for <m>...)".
  /// Empty when every dataset is ranked.
  const std::string& RenderDropped() const { return dropped_; }

  /// The ranked datasets, in the cells' order (a grid's sweep order).
  const std::vector<std::string>& datasets() const { return datasets_; }
  /// The cells' score names, in the cells' order (the measure suite's).
  const std::vector<std::string>& measures() const { return measures_; }

 private:
  /// Mean score of (method, dataset, measure) for a ranked dataset.
  double Score(const std::string& method, const std::string& dataset,
               const std::string& measure) const;

  /// Average rank of each method per `outer` entry, ranked within each of `blocks`.
  linalg::Matrix RankPerBlockSet(const std::vector<std::string>& outer,
                                 const std::vector<std::string>& blocks,
                                 bool outer_is_measure) const;

  std::vector<MethodRunResult> cells_;
  std::vector<std::string> methods_;
  std::vector<std::string> datasets_;
  std::vector<std::string> measures_;
  std::string dropped_;
};

}  // namespace tsg::core

#endif  // TSG_CORE_RANKING_H_
