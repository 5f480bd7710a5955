#ifndef TSG_METHODS_FOURIER_FLOW_H_
#define TSG_METHODS_FOURIER_FLOW_H_

#include <memory>
#include <string>
#include <vector>

#include "methods/common.h"

namespace tsg::methods {

/// A8: Fourier Flow (Alaa et al. 2021) — a normalizing flow in the frequency domain.
/// Each window is mapped per dimension through an orthonormal real DFT (the paper
/// applies the DFT to each dimension for N > 1), and a stack of data-dependent
/// affine spectral coupling layers (hidden size 50; 3 flows for Stock/StockLong, 5
/// otherwise — the paper's settings) is trained by exact maximum likelihood against
/// a standard-normal base. Sampling inverts the flow and the DFT.
class FourierFlow : public PaperMethod {
 public:
  FourierFlow();
  ~FourierFlow() override;

  Status Fit(const core::Dataset& train, const core::FitOptions& options) override;
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override;
  uint64_t HyperparameterDigest() const override;
  std::string name() const override { return "FourierFlow"; }

  struct Impl;

 private:
  Status Build(const Dims& dims, Rng& rng) override;
  std::vector<linalg::Matrix*> State() const override;

  std::unique_ptr<Impl> impl_;
  int64_t seq_len_ = 0;
  int64_t num_features_ = 0;
};

}  // namespace tsg::methods

#endif  // TSG_METHODS_FOURIER_FLOW_H_
