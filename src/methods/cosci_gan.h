#ifndef TSG_METHODS_COSCI_GAN_H_
#define TSG_METHODS_COSCI_GAN_H_

#include <memory>
#include <string>
#include <vector>

#include "methods/common.h"

namespace tsg::methods {

/// A4: COSCI-GAN (Seyfi et al. 2022) — COmmon Source CoordInated GAN. One GRU
/// generator/discriminator *pair per channel*, all generators fed from a single
/// shared noise source so channel correlations are preserved, plus an MLP central
/// discriminator over the full multivariate window. The paper's gamma = 5 weights the
/// central discriminator's feedback into each channel generator's loss.
class CosciGan : public PaperMethod {
 public:
  CosciGan();
  ~CosciGan() override;

  Status Fit(const core::Dataset& train, const core::FitOptions& options) override;
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override;
  uint64_t HyperparameterDigest() const override;
  std::string name() const override { return "COSCI-GAN"; }

 private:
  Status Build(const Dims& dims, Rng& rng) override;
  std::vector<linalg::Matrix*> State() const override;

  struct Nets;
  std::unique_ptr<Nets> nets_;
  int64_t seq_len_ = 0;
  int64_t num_features_ = 0;
  int64_t noise_dim_ = 0;
  int64_t hidden_ = 0;
};

}  // namespace tsg::methods

#endif  // TSG_METHODS_COSCI_GAN_H_
