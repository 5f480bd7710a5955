#ifndef TSG_METHODS_GT_GAN_H_
#define TSG_METHODS_GT_GAN_H_

#include <memory>
#include <string>
#include <vector>

#include "methods/common.h"

namespace tsg::methods {

/// A9: GT-GAN (Jeon et al. 2022) — ODE-based adversarial generation. The generator
/// is a latent ODE (the paper's continuous-time flow process), here integrated with
/// fixed-step Euler sub-steps, which keeps the defining property — an ODE solve
/// inside every training step and hence the method's characteristic training cost —
/// while staying tractable without an adaptive solver. The discriminator is a
/// GRU-ODE: the hidden state evolves by the same Euler integration between
/// observations and jumps through a GRU cell at each observation. Training runs the
/// paper's MLE pretraining for P_MLE = 2 epochs (realized as moment matching, since
/// the implicit generator has no closed-form likelihood) followed by adversarial
/// training. The paper's regular-time-series mode is used.
class GtGan : public PaperMethod {
 public:
  GtGan();
  ~GtGan() override;

  Status Fit(const core::Dataset& train, const core::FitOptions& options) override;
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override;
  uint64_t HyperparameterDigest() const override;
  std::string name() const override { return "GT-GAN"; }

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

#endif  // TSG_METHODS_GT_GAN_H_
