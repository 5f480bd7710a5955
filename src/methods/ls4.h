#ifndef TSG_METHODS_LS4_H_
#define TSG_METHODS_LS4_H_

#include <memory>
#include <string>
#include <vector>

#include "methods/common.h"

namespace tsg::methods {

/// A10: LS4 (Zhou et al. 2023) — deep latent state-space generation. Stacked linear
/// state-space layers (diagonal learned transition, the efficient deep-SSM
/// parameterization) form both the sequence encoder and decoder, with a per-sequence
/// stochastic latent of dimension 5 (the paper's setting) trained on the VAE
/// objective. Diagonal recurrences make both training and sampling cheap, which is
/// what gives LS4 its standout training efficiency in the paper's Figure 5.
class Ls4 : public PaperMethod {
 public:
  Ls4();
  ~Ls4() override;

  Status Fit(const core::Dataset& train, const core::FitOptions& options) override;
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override;
  uint64_t HyperparameterDigest() const override;
  std::string name() const override { return "LS4"; }

  struct Nets;

 private:
  Status Build(const Dims& dims, Rng& rng) override;
  std::vector<linalg::Matrix*> State() const override;

  std::unique_ptr<Nets> nets_;
  int64_t seq_len_ = 0;
  int64_t num_features_ = 0;
  int64_t latent_dim_ = 0;
};

}  // namespace tsg::methods

#endif  // TSG_METHODS_LS4_H_
