#ifndef TSG_METHODS_RTSGAN_H_
#define TSG_METHODS_RTSGAN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/method.h"

namespace tsg::methods {

/// A3: RTSGAN (Pei et al. 2021) — autoencoder + latent WGAN. A GRU autoencoder maps
/// each series to a fixed-length latent vector; a Wasserstein GAN (weight-clipped
/// critic, the paper's "complete time series generation" mode with Adam beta1=0.9,
/// beta2=0.999) is trained in that latent space; generation samples the latent GAN
/// and decodes.
class RtsGan : public core::TsgMethod {
 public:
  RtsGan();
  ~RtsGan() override;

  Status Fit(const core::Dataset& train, const core::FitOptions& options) override;
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override;
  StatusOr<core::MethodSnapshot> Snapshot() const override;
  Status Restore(const core::MethodSnapshot& snapshot) override;
  uint64_t HyperparameterDigest() const override;
  std::string name() const override { return "RTSGAN"; }

 private:
  struct Nets;
  std::unique_ptr<Nets> nets_;
  int64_t seq_len_ = 0;
  int64_t num_features_ = 0;
  int64_t latent_dim_ = 0;
  int64_t noise_dim_ = 0;
  int64_t hidden_ = 0;
};

}  // namespace tsg::methods

#endif  // TSG_METHODS_RTSGAN_H_
