#ifndef TSG_SIGNAL_STFT_H_
#define TSG_SIGNAL_STFT_H_

#include <cstdint>
#include <vector>

#include "signal/fft.h"

namespace tsg::signal {

/// Short-Time Fourier Transform frames: `coeffs[frame][bin]`, with n_fft/2+1 bins per
/// frame. Used by TimeVQVAE to split series into low/high frequency bands.
struct Stft {
  int64_t n_fft = 0;
  int64_t hop = 0;
  int64_t signal_length = 0;
  std::vector<std::vector<Complex>> coeffs;

  int64_t num_frames() const { return static_cast<int64_t>(coeffs.size()); }
  int64_t num_bins() const { return n_fft / 2 + 1; }
};

/// Computes the STFT with a periodic Hann window and reflect padding so that every
/// sample is covered and the transform is invertible by overlap-add.
Stft ComputeStft(const std::vector<double>& x, int64_t n_fft, int64_t hop);

/// Inverse STFT via windowed overlap-add with window-power normalization. Returns a
/// signal of length stft.signal_length.
std::vector<double> InverseStft(const Stft& stft);

}  // namespace tsg::signal

#endif  // TSG_SIGNAL_STFT_H_
