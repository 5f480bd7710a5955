#ifndef TSG_METHODS_TIMEGAN_H_
#define TSG_METHODS_TIMEGAN_H_

#include <memory>
#include <string>
#include <vector>

#include "methods/common.h"

namespace tsg::methods {

/// A2: TimeGAN (Yoon et al. 2019) — the benchmark recurrent GAN that learns jointly
/// in an embedding space. Five networks: embedder E (x -> h), recovery R (h -> x),
/// generator G (z -> h_hat), supervisor S (h_t -> h_{t+1}) and discriminator D (h ->
/// logit), trained in the paper's three phases: (1) autoencoding, (2) supervised
/// next-step dynamics, (3) joint adversarial training with the supervised and moment
/// losses. GRU stacks follow the paper's suggested architecture (depth reduced to 2
/// for CPU budgets).
class TimeGan : public PaperMethod {
 public:
  TimeGan();
  ~TimeGan() override;

  Status Fit(const core::Dataset& train, const core::FitOptions& options) override;
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override;
  uint64_t HyperparameterDigest() const override;
  std::string name() const override { return "TimeGAN"; }

  /// Implementation detail, public only so file-local helpers can take it.
  struct Nets;

 private:
  Status Build(const Dims& dims, Rng& rng) override;
  std::vector<linalg::Matrix*> State() const override;

  std::unique_ptr<Nets> nets_;
  int64_t seq_len_ = 0;
  int64_t num_features_ = 0;
  int64_t noise_dim_ = 0;
  int64_t hidden_ = 0;
};

}  // namespace tsg::methods

#endif  // TSG_METHODS_TIMEGAN_H_
