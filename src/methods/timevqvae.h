#ifndef TSG_METHODS_TIMEVQVAE_H_
#define TSG_METHODS_TIMEVQVAE_H_

#include <memory>
#include <string>
#include <vector>

#include "methods/common.h"

namespace tsg::methods {

/// A7: TimeVQVAE (Lee et al. 2023) — vector-quantized time-series generation in the
/// time-frequency domain. Stage 1: each window is STFT-analyzed (n_fft = 8, the
/// paper's setting), split into low- and high-frequency bands, and each band is
/// encoded and quantized against a learned codebook (EMA updates, straight-through
/// gradients, product quantization over 4 sub-codes per band). Stage 2: a bigram
/// prior over the 8 code positions is fit by counting; sampling draws codes from the
/// prior, decodes both bands, and inverse-STFTs back to the time domain.
class TimeVqVae : public PaperMethod {
 public:
  TimeVqVae();
  ~TimeVqVae() override;

  Status Fit(const core::Dataset& train, const core::FitOptions& options) override;
  std::vector<linalg::Matrix> Generate(int64_t count, Rng& rng) const override;
  uint64_t HyperparameterDigest() const override;
  std::string name() const override { return "TimeVQVAE"; }

  struct Impl;

 private:
  Status Build(const Dims& dims, Rng& rng) override;
  std::vector<linalg::Matrix*> State() const override;

  std::unique_ptr<Impl> impl_;
};

}  // namespace tsg::methods

#endif  // TSG_METHODS_TIMEVQVAE_H_
