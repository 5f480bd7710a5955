#include "signal/stft.h"

#include <cmath>

#include "base/check.h"

namespace tsg::signal {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::vector<double> HannWindow(int64_t n) {
  std::vector<double> w(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    w[static_cast<size_t>(i)] =
        0.5 - 0.5 * std::cos(2.0 * kPi * static_cast<double>(i) /
                             static_cast<double>(n));
  }
  return w;
}

/// Reflect-pads `x` by `pad` samples on each side (mirror without repeating the edge).
std::vector<double> ReflectPad(const std::vector<double>& x, int64_t pad) {
  const int64_t n = static_cast<int64_t>(x.size());
  TSG_CHECK_GT(n, 1);
  std::vector<double> out(static_cast<size_t>(n + 2 * pad));
  auto reflect = [n](int64_t i) {
    while (i < 0 || i >= n) {
      if (i < 0) i = -i;
      if (i >= n) i = 2 * (n - 1) - i;
    }
    return i;
  };
  for (int64_t i = 0; i < n + 2 * pad; ++i) {
    out[static_cast<size_t>(i)] = x[static_cast<size_t>(reflect(i - pad))];
  }
  return out;
}

}  // namespace

Stft ComputeStft(const std::vector<double>& x, int64_t n_fft, int64_t hop) {
  TSG_CHECK_GT(n_fft, 1);
  TSG_CHECK_GT(hop, 0);
  TSG_CHECK_LE(hop, n_fft);
  Stft result;
  result.n_fft = n_fft;
  result.hop = hop;
  result.signal_length = static_cast<int64_t>(x.size());

  const std::vector<double> window = HannWindow(n_fft);
  const int64_t pad = n_fft / 2;
  const std::vector<double> padded = ReflectPad(x, pad);
  const int64_t padded_len = static_cast<int64_t>(padded.size());

  for (int64_t start = 0; start + n_fft <= padded_len; start += hop) {
    std::vector<double> frame(static_cast<size_t>(n_fft));
    for (int64_t i = 0; i < n_fft; ++i) {
      frame[static_cast<size_t>(i)] =
          padded[static_cast<size_t>(start + i)] * window[static_cast<size_t>(i)];
    }
    result.coeffs.push_back(RealDft(frame));
  }
  return result;
}

std::vector<double> InverseStft(const Stft& stft) {
  const int64_t n_fft = stft.n_fft, hop = stft.hop;
  const int64_t pad = n_fft / 2;
  const int64_t padded_len = pad * 2 + stft.signal_length;
  const std::vector<double> window = HannWindow(n_fft);

  std::vector<double> acc(static_cast<size_t>(padded_len), 0.0);
  std::vector<double> norm(static_cast<size_t>(padded_len), 0.0);
  int64_t start = 0;
  for (const auto& frame_coeffs : stft.coeffs) {
    const std::vector<double> frame = InverseRealDft(frame_coeffs, n_fft);
    for (int64_t i = 0; i < n_fft && start + i < padded_len; ++i) {
      acc[static_cast<size_t>(start + i)] += frame[static_cast<size_t>(i)] *
                                             window[static_cast<size_t>(i)];
      norm[static_cast<size_t>(start + i)] += window[static_cast<size_t>(i)] *
                                              window[static_cast<size_t>(i)];
    }
    start += hop;
  }
  std::vector<double> out(static_cast<size_t>(stft.signal_length));
  for (int64_t i = 0; i < stft.signal_length; ++i) {
    const double w = norm[static_cast<size_t>(i + pad)];
    out[static_cast<size_t>(i)] = w > 1e-10 ? acc[static_cast<size_t>(i + pad)] / w : 0.0;
  }
  return out;
}

}  // namespace tsg::signal
