#ifndef TSG_METHODS_AEC_GAN_H_
#define TSG_METHODS_AEC_GAN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/method.h"

namespace tsg::methods {

/// A5: AEC-GAN (Wang et al. 2023) — Adversarial Error Correction GAN for
/// auto-regressive long-series generation. The generator is conditioned on a context
/// window of length l_c (the paper's per-l settings are reproduced) and produces the
/// remaining l_g = l - l_c steps autoregressively; an MLP error-correction module
/// refines the generated chunk to counteract bias amplification; a GRU discriminator
/// judges full windows. The paper's adversarial data augmentation is approximated by
/// perturbing real contexts with small noise during training.
class AecGan : public core::TsgMethod {
 public:
  AecGan();
  ~AecGan() override;

  Status Fit(const core::Dataset& train, const core::FitOptions& options) override;
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override;
  StatusOr<core::MethodSnapshot> Snapshot() const override;
  Status Restore(const core::MethodSnapshot& snapshot) override;
  uint64_t HyperparameterDigest() const override;
  std::string name() const override { return "AEC-GAN"; }

  /// The paper's context length for a given window length l (Parameter Settings).
  static int64_t ContextLengthFor(int64_t l);

  struct Nets;

 private:
  std::unique_ptr<Nets> nets_;
  int64_t seq_len_ = 0;
  int64_t num_features_ = 0;
  int64_t context_len_ = 0;
  int64_t noise_dim_ = 0;
  int64_t hidden_ = 0;
};

}  // namespace tsg::methods

#endif  // TSG_METHODS_AEC_GAN_H_
