#ifndef TSG_METHODS_TIMEVAE_H_
#define TSG_METHODS_TIMEVAE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/method.h"

namespace tsg::methods {

/// A6: TimeVAE (Desai et al. 2021) — an interpretable variational autoencoder for
/// TSG. The encoder maps the flattened window to a Gaussian posterior with latent
/// dimension 8 (the paper's setting); the decoder is the paper's interpretable
/// decomposition: a polynomial trend block + a Fourier seasonal block + a residual
/// network, summed and squashed into [0, 1]. Trained on the ELBO; generation decodes
/// standard-normal latents. (The paper's convolutional residual block is realized as
/// a dense residual network — the trend/seasonality decomposition, which drives the
/// method's behaviour, is kept exactly.)
class TimeVae : public core::TsgMethod {
 public:
  TimeVae();
  ~TimeVae() override;

  Status Fit(const core::Dataset& train, const core::FitOptions& options) override;
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override;
  StatusOr<core::MethodSnapshot> Snapshot() const override;
  Status Restore(const core::MethodSnapshot& snapshot) override;
  uint64_t HyperparameterDigest() const override;
  std::string name() const override { return "TimeVAE"; }

  struct Nets;

 private:
  std::unique_ptr<Nets> nets_;
  int64_t seq_len_ = 0;
  int64_t num_features_ = 0;
  int64_t latent_dim_ = 8;  // Paper setting.
};

}  // namespace tsg::methods

#endif  // TSG_METHODS_TIMEVAE_H_
