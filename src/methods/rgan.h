#ifndef TSG_METHODS_RGAN_H_
#define TSG_METHODS_RGAN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/method.h"

namespace tsg::methods {

/// A1: RGAN (Esteban et al. 2017) — the pioneering recurrent GAN for TSG. A GRU
/// generator maps a noise sequence to a series; a GRU discriminator scores every
/// time step. Trained with the standard alternating BCE objectives. Following the
/// paper's parameter settings, the number of hidden units is 4N (clamped to a
/// practical range for CPU training).
class Rgan : public core::TsgMethod {
 public:
  Rgan();
  ~Rgan() override;

  Status Fit(const core::Dataset& train, const core::FitOptions& options) override;
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override;
  StatusOr<core::MethodSnapshot> Snapshot() const override;
  Status Restore(const core::MethodSnapshot& snapshot) override;
  uint64_t HyperparameterDigest() const override;
  std::string name() const override { return "RGAN"; }

 private:
  struct Nets;
  std::unique_ptr<Nets> nets_;
  int64_t seq_len_ = 0;
  int64_t num_features_ = 0;
  int64_t noise_dim_ = 0;
  int64_t hidden_ = 0;
};

}  // namespace tsg::methods

#endif  // TSG_METHODS_RGAN_H_
