#include "core/ranking.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "base/check.h"

namespace tsg::core {

RankingAnalysis::RankingAnalysis(std::vector<MethodRunResult> cells,
                                 std::vector<std::string> methods)
    : cells_(std::move(cells)), methods_(std::move(methods)) {
  const auto add_new = [](const std::string& name, std::vector<std::string>* names) {
    if (std::find(names->begin(), names->end(), name) == names->end()) {
      names->push_back(name);
    }
  };
  std::vector<std::string> datasets;
  for (const MethodRunResult& cell : cells_) {
    add_new(cell.dataset, &datasets);
    for (const auto& [measure, summary] : cell.scores) add_new(measure, &measures_);
  }
  for (const std::string& dataset : datasets) {
    std::string missing;
    for (const std::string& method : methods_) {
      if (FindCell(cells_, method, dataset) == nullptr) missing += " " + method;
    }
    if (missing.empty()) {
      datasets_.push_back(dataset);
    } else {
      dropped_ += "Not ranked: " + dataset + " (no finished cell for" + missing + ")\n";
    }
  }
}

double RankingAnalysis::Score(const std::string& method, const std::string& dataset,
                              const std::string& measure) const {
  // A ranked dataset has every method's cell; every cell of one grid scores
  // the same measure suite.
  const MethodRunResult* cell = FindCell(cells_, method, dataset);
  const stats::MeanStd* score = cell != nullptr ? cell->Find(measure) : nullptr;
  TSG_CHECK(score != nullptr) << "no score " << method << "/" << dataset << "/"
                              << measure;
  return score->mean;
}

linalg::Matrix RankingAnalysis::RankPerBlockSet(
    const std::vector<std::string>& outer,   // One output row per entry.
    const std::vector<std::string>& blocks,  // Averaged (ranked) across these.
    bool outer_is_measure) const {
  const int64_t k = static_cast<int64_t>(methods_.size());
  linalg::Matrix out(static_cast<int64_t>(outer.size()), k);
  for (size_t oi = 0; oi < outer.size(); ++oi) {
    std::vector<double> avg(static_cast<size_t>(k), 0.0);
    for (const std::string& block : blocks) {
      std::vector<double> scores(static_cast<size_t>(k));
      for (int64_t m = 0; m < k; ++m) {
        const std::string& method = methods_[static_cast<size_t>(m)];
        scores[static_cast<size_t>(m)] =
            outer_is_measure ? Score(method, block, outer[oi])
                             : Score(method, outer[oi], block);
      }
      const std::vector<double> ranks = stats::RankWithTies(scores);
      for (int64_t m = 0; m < k; ++m) avg[static_cast<size_t>(m)] += ranks[m];
    }
    for (int64_t m = 0; m < k; ++m) {
      out(static_cast<int64_t>(oi), m) =
          avg[static_cast<size_t>(m)] / static_cast<double>(blocks.size());
    }
  }
  return out;
}

linalg::Matrix RankingAnalysis::RankPerMeasure() const {
  return RankPerBlockSet(measures_, datasets_, /*outer_is_measure=*/true);
}

linalg::Matrix RankingAnalysis::RankPerDataset() const {
  return RankPerBlockSet(datasets_, measures_, /*outer_is_measure=*/false);
}

RankingAnalysis::Overall RankingAnalysis::ComputeOverall(double alpha) const {
  const int64_t blocks =
      static_cast<int64_t>(datasets_.size() * measures_.size());
  const int64_t k = static_cast<int64_t>(methods_.size());
  linalg::Matrix scores(blocks, k);
  int64_t row = 0;
  for (const std::string& dataset : datasets_) {
    for (const std::string& measure : measures_) {
      for (int64_t m = 0; m < k; ++m) {
        scores(row, m) = Score(methods_[static_cast<size_t>(m)], dataset, measure);
      }
      ++row;
    }
  }
  Overall overall;
  overall.friedman = stats::FriedmanTest(scores);
  overall.conover_p = stats::ConoverFriedmanPValues(overall.friedman);
  overall.tiers =
      stats::CriticalDifferenceTiers(overall.friedman, overall.conover_p, alpha);
  return overall;
}

std::string RankingAnalysis::RenderCriticalDifference(const Overall& overall) const {
  const int64_t k = static_cast<int64_t>(methods_.size());
  std::vector<int64_t> order(k);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return overall.friedman.average_ranks[static_cast<size_t>(a)] <
           overall.friedman.average_ranks[static_cast<size_t>(b)];
  });

  std::ostringstream os;
  os << "Friedman chi2 = " << overall.friedman.statistic
     << ", p = " << overall.friedman.p_value << "\n";
  int current_tier = -1;
  for (int64_t i = 0; i < k; ++i) {
    const int64_t m = order[static_cast<size_t>(i)];
    const int tier = overall.tiers[static_cast<size_t>(m)];
    if (tier != current_tier) {
      os << "Tier " << tier + 1 << ":\n";
      current_tier = tier;
    }
    os << "  " << methods_[static_cast<size_t>(m)] << "  (avg rank "
       << overall.friedman.average_ranks[static_cast<size_t>(m)] << ")\n";
  }
  return os.str();
}

}  // namespace tsg::core
