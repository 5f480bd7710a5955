#include "methods/timevqvae.h"

#include <algorithm>
#include <cmath>

#include "ag/ops.h"
#include "methods/common.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "signal/stft.h"

namespace tsg::methods {

using ag::Detach;
using ag::MseLoss;
using ag::ScalarMul;

namespace {

constexpr int64_t kNfft = 8;   // Paper setting.
constexpr int64_t kHop = 4;
constexpr int64_t kLowBins = 2;    // Bins [0, 2) = low band, [2, 5) = high band.
constexpr int64_t kSubCodes = 4;   // Product-quantization positions per band.
constexpr int64_t kSubDim = 4;     // Dimension of each sub-code.
constexpr int64_t kEmbedDim = kSubCodes * kSubDim;
constexpr int64_t kCodebookSize = 32;
constexpr double kCommitBeta = 0.25;
constexpr double kEmaDecay = 0.95;

/// Band layout for one dataset shape.
struct BandLayout {
  int64_t frames = 0;
  int64_t bins = 0;      // n_fft/2 + 1.
  int64_t features = 0;
  int64_t seq_len = 0;

  int64_t BandDim(bool low) const {
    const int64_t band_bins = low ? kLowBins : bins - kLowBins;
    return frames * band_bins * 2 * features;
  }
};

/// STFT-analyzes one (l x N) sample into flattened low/high band vectors
/// (order: feature-major, then frame, then bin, re/im interleaved).
void SampleToBands(const Matrix& sample, const BandLayout& layout,
                   std::vector<double>* low, std::vector<double>* high) {
  low->clear();
  high->clear();
  for (int64_t j = 0; j < layout.features; ++j) {
    std::vector<double> column(static_cast<size_t>(sample.rows()));
    for (int64_t t = 0; t < sample.rows(); ++t) {
      column[static_cast<size_t>(t)] = sample(t, j);
    }
    const signal::Stft stft = signal::ComputeStft(column, kNfft, kHop);
    for (int64_t f = 0; f < layout.frames; ++f) {
      for (int64_t b = 0; b < layout.bins; ++b) {
        auto* dst = b < kLowBins ? low : high;
        dst->push_back(stft.coeffs[static_cast<size_t>(f)][static_cast<size_t>(b)]
                           .real());
        dst->push_back(stft.coeffs[static_cast<size_t>(f)][static_cast<size_t>(b)]
                           .imag());
      }
    }
  }
}

/// Rebuilds an (l x N) sample from the two flattened band vectors.
Matrix BandsToSample(const std::vector<double>& low, const std::vector<double>& high,
                     const BandLayout& layout) {
  Matrix sample(layout.seq_len, layout.features);
  size_t low_pos = 0, high_pos = 0;
  for (int64_t j = 0; j < layout.features; ++j) {
    signal::Stft stft;
    stft.n_fft = kNfft;
    stft.hop = kHop;
    stft.signal_length = layout.seq_len;
    stft.coeffs.assign(static_cast<size_t>(layout.frames),
                       std::vector<signal::Complex>(
                           static_cast<size_t>(layout.bins)));
    for (int64_t f = 0; f < layout.frames; ++f) {
      for (int64_t b = 0; b < layout.bins; ++b) {
        const std::vector<double>& src = b < kLowBins ? low : high;
        size_t& pos = b < kLowBins ? low_pos : high_pos;
        const double re = src[pos++];
        const double im = src[pos++];
        stft.coeffs[static_cast<size_t>(f)][static_cast<size_t>(b)] =
            signal::Complex(re, im);
      }
    }
    const std::vector<double> column = signal::InverseStft(stft);
    for (int64_t t = 0; t < layout.seq_len; ++t) {
      sample(t, j) = column[static_cast<size_t>(t)];
    }
  }
  return sample;
}

/// One band's VQ-VAE: MLP encoder/decoder around an EMA-updated product codebook.
struct BandVqVae {
  BandVqVae(int64_t band_dim, Rng& rng)
      : encoder({band_dim, 64, kEmbedDim}, rng, nn::Activation::kRelu),
        decoder({kEmbedDim, 64, band_dim}, rng, nn::Activation::kRelu),
        codebook(kCodebookSize, kSubDim),
        ema_counts(Matrix::Constant(kCodebookSize, 1, 1.0)),
        ema_sums(kCodebookSize, kSubDim) {
    for (int64_t i = 0; i < codebook.size(); ++i) codebook[i] = rng.Normal() * 0.1;
    ema_sums = codebook;
  }

  /// Nearest codebook index for one sub-vector.
  int64_t NearestCode(const double* sub) const {
    int64_t best = 0;
    double best_dist = 1e300;
    for (int64_t k = 0; k < kCodebookSize; ++k) {
      double d = 0.0;
      for (int64_t c = 0; c < kSubDim; ++c) {
        const double diff = sub[c] - codebook(k, c);
        d += diff * diff;
      }
      if (d < best_dist) {
        best_dist = d;
        best = k;
      }
    }
    return best;
  }

  /// Quantizes encoder outputs (batch x kEmbedDim); fills `codes` with
  /// (batch x kSubCodes) indices and returns the quantized embedding values.
  Matrix Quantize(const Matrix& z, std::vector<std::vector<int64_t>>* codes) const {
    Matrix q(z.rows(), z.cols());
    codes->assign(static_cast<size_t>(z.rows()), {});
    for (int64_t b = 0; b < z.rows(); ++b) {
      for (int64_t p = 0; p < kSubCodes; ++p) {
        const int64_t k = NearestCode(z.data() + b * kEmbedDim + p * kSubDim);
        (*codes)[static_cast<size_t>(b)].push_back(k);
        for (int64_t c = 0; c < kSubDim; ++c) {
          q(b, p * kSubDim + c) = codebook(k, c);
        }
      }
    }
    return q;
  }

  /// EMA codebook update from a batch of encoder outputs and their assignments.
  void UpdateCodebook(const Matrix& z,
                      const std::vector<std::vector<int64_t>>& codes) {
    std::vector<double> counts(static_cast<size_t>(kCodebookSize), 0.0);
    Matrix sums(kCodebookSize, kSubDim);
    for (int64_t b = 0; b < z.rows(); ++b) {
      for (int64_t p = 0; p < kSubCodes; ++p) {
        const int64_t k = codes[static_cast<size_t>(b)][static_cast<size_t>(p)];
        counts[static_cast<size_t>(k)] += 1.0;
        for (int64_t c = 0; c < kSubDim; ++c) {
          sums(k, c) += z(b, p * kSubDim + c);
        }
      }
    }
    for (int64_t k = 0; k < kCodebookSize; ++k) {
      ema_counts[k] =
          kEmaDecay * ema_counts[k] + (1.0 - kEmaDecay) * counts[static_cast<size_t>(k)];
      for (int64_t c = 0; c < kSubDim; ++c) {
        ema_sums(k, c) = kEmaDecay * ema_sums(k, c) + (1.0 - kEmaDecay) * sums(k, c);
        codebook(k, c) = ema_sums(k, c) / std::max(ema_counts[k], 1e-5);
      }
    }
  }

  /// Embedding values for a code sequence (kSubCodes indices).
  Matrix CodesToEmbedding(const std::vector<int64_t>& code_seq) const {
    Matrix e(1, kEmbedDim);
    for (int64_t p = 0; p < kSubCodes; ++p) {
      for (int64_t c = 0; c < kSubDim; ++c) {
        e(0, p * kSubDim + c) = codebook(code_seq[static_cast<size_t>(p)], c);
      }
    }
    return e;
  }

  nn::Mlp encoder;
  nn::Mlp decoder;
  Matrix codebook;
  Matrix ema_counts;  // (K x 1).
  Matrix ema_sums;
};

/// Bigram prior over the concatenated 2*kSubCodes code positions (low then high),
/// fit by counting with Laplace smoothing.
struct BigramPrior {
  BigramPrior()
      : initial(Matrix::Constant(kCodebookSize, 1, 1.0)),
        transitions(2 * kSubCodes - 1, Matrix(kCodebookSize, kCodebookSize)) {
    for (auto& t : transitions) t.Fill(1.0);
  }

  void Observe(const std::vector<int64_t>& seq) {
    initial[seq[0]] += 1.0;
    for (size_t p = 0; p + 1 < seq.size(); ++p) {
      transitions[p](seq[p], seq[p + 1]) += 1.0;
    }
  }

  std::vector<int64_t> Sample(Rng& rng) const {
    std::vector<int64_t> seq;
    seq.push_back(SampleFrom(initial.data(), rng));
    for (size_t p = 0; p < transitions.size(); ++p) {
      const Matrix& t = transitions[p];
      seq.push_back(SampleFrom(t.data() + seq.back() * kCodebookSize, rng));
    }
    return seq;
  }

  static int64_t SampleFrom(const double* weights, Rng& rng) {
    double total = 0.0;
    for (int64_t k = 0; k < kCodebookSize; ++k) total += weights[k];
    double u = rng.Uniform() * total;
    for (int64_t k = 0; k < kCodebookSize; ++k) {
      u -= weights[k];
      if (u <= 0.0) return k;
    }
    return kCodebookSize - 1;
  }

  Matrix initial;  // (K x 1).
  std::vector<Matrix> transitions;
};

}  // namespace

struct TimeVqVae::Impl {
  Impl(const BandLayout& band_layout, Rng& rng)
      : layout(band_layout),
        low(band_layout.BandDim(true), rng),
        high(band_layout.BandDim(false), rng) {}

  BandLayout layout;
  BandVqVae low;
  BandVqVae high;
  BigramPrior prior;
};

TimeVqVae::TimeVqVae() = default;

TimeVqVae::~TimeVqVae() = default;

Status TimeVqVae::Fit(const core::Dataset& train, const core::FitOptions& options) {
  if (train.empty()) return Status::InvalidArgument("TimeVQVAE: empty training set");
  if (train.seq_len() < kNfft) {
    return Status::InvalidArgument("TimeVQVAE requires l >= n_fft (8)");
  }
  Rng rng(options.seed ^ 0x70BE);

  // The band layout comes from one probe STFT.
  const signal::Stft probe = signal::ComputeStft(
      std::vector<double>(static_cast<size_t>(train.seq_len()), 0.0), kNfft, kHop);
  TSG_RETURN_IF_ERROR(BuildFrom({{"seq_len", train.seq_len()},
                                 {"num_features", train.num_features()},
                                 {"frames", probe.num_frames()},
                                 {"bins", probe.num_bins()}},
                                rng));
  const BandLayout& layout = impl_->layout;

  // Precompute band vectors for every training sample.
  const int64_t count = train.num_samples();
  Matrix low_data(count, layout.BandDim(true));
  Matrix high_data(count, layout.BandDim(false));
  std::vector<double> low_vec, high_vec;
  for (int64_t i = 0; i < count; ++i) {
    SampleToBands(train.sample(i), layout, &low_vec, &high_vec);
    for (int64_t c = 0; c < low_data.cols(); ++c) low_data(i, c) =
        low_vec[static_cast<size_t>(c)];
    for (int64_t c = 0; c < high_data.cols(); ++c) high_data(i, c) =
        high_vec[static_cast<size_t>(c)];
  }

  // ---- Stage 1: train both band VQ-VAEs. ----
  nn::Adam opt(nn::CollectParameters({&impl_->low.encoder, &impl_->low.decoder,
                                      &impl_->high.encoder, &impl_->high.decoder}),
               2e-3);
  const int epochs = ResolveEpochs(240, options);
  std::vector<int64_t> idx;
  auto band_loss = [&](BandVqVae& band, const Matrix& data,
                       const std::vector<int64_t>& batch_idx) {
    Matrix xb(static_cast<int64_t>(batch_idx.size()), data.cols());
    for (size_t b = 0; b < batch_idx.size(); ++b) {
      for (int64_t c = 0; c < data.cols(); ++c) {
        xb(static_cast<int64_t>(b), c) = data(batch_idx[b], c);
      }
    }
    const Var x = Var::Constant(std::move(xb));
    const Var z = band.encoder.Forward(x);
    std::vector<std::vector<int64_t>> codes;
    const Matrix q_values = band.Quantize(z.value(), &codes);
    band.UpdateCodebook(z.value(), codes);
    const Var q = Var::Constant(q_values);
    // Straight-through: decoder sees quantized values, encoder gets the gradient.
    const Var z_st = z + Detach(q - z);
    const Var recon = band.decoder.Forward(z_st);
    const Var commit = MseLoss(z, Detach(q));
    return MseLoss(recon, x) + ScalarMul(commit, kCommitBeta);
  };

  for (int epoch = 0; epoch < epochs; ++epoch) {
    MiniBatcher batcher(count, options.batch_size, rng);
    while (batcher.Next(&idx)) {
      const ag::StepScope step_scope;
      const Var loss = band_loss(impl_->low, low_data, idx) +
                       band_loss(impl_->high, high_data, idx);
      TSG_RETURN_IF_ERROR(GuardedStep(opt, loss, 5.0, {"TimeVQVAE", "vqvae", epoch}));
    }
  }

  // ---- Stage 2: fit the bigram prior over code sequences. ----
  for (int64_t i = 0; i < count; ++i) {
    std::vector<std::vector<int64_t>> low_codes, high_codes;
    impl_->low.Quantize(
        impl_->low.encoder.Forward(Var::Constant(low_data.Block(i, 0, 1,
                                                                low_data.cols())))
            .value(),
        &low_codes);
    impl_->high.Quantize(
        impl_->high.encoder.Forward(Var::Constant(high_data.Block(i, 0, 1,
                                                                  high_data.cols())))
            .value(),
        &high_codes);
    std::vector<int64_t> seq = low_codes[0];
    seq.insert(seq.end(), high_codes[0].begin(), high_codes[0].end());
    impl_->prior.Observe(seq);
  }
  return Status::Ok();
}

Status TimeVqVae::Build(const Dims& dims, Rng& rng) {
  BandLayout layout;
  TSG_RETURN_IF_ERROR(ReadDims(dims, {{"seq_len", &layout.seq_len},
                                      {"num_features", &layout.features},
                                      {"frames", &layout.frames},
                                      {"bins", &layout.bins}}));
  if (layout.seq_len < kNfft || layout.bins <= kLowBins) {
    return Status::InvalidArgument("TimeVQVAE: invalid band layout");
  }
  impl_ = std::make_unique<Impl>(layout, rng);
  return Status::Ok();
}

/// The Var parameters, then the non-gradient state: per band the codebook and
/// EMA statistics, then the bigram prior (initial weights, transition counts).
std::vector<Matrix*> TimeVqVae::State() const {
  std::vector<Matrix*> state = ValuesOf(
      nn::CollectParameters({&impl_->low.encoder, &impl_->low.decoder,
                             &impl_->high.encoder, &impl_->high.decoder}));
  for (BandVqVae* band : {&impl_->low, &impl_->high}) {
    state.insert(state.end(), {&band->codebook, &band->ema_counts, &band->ema_sums});
  }
  state.push_back(&impl_->prior.initial);
  for (Matrix& t : impl_->prior.transitions) state.push_back(&t);
  return state;
}

uint64_t TimeVqVae::HyperparameterDigest() const {
  return HyperDigest(
      "TimeVQVAE v1: nfft=8 hop=4 low-bins=2 sub-codes=4 sub-dim=4 "
      "codebook=32 ema=0.95 beta=0.25 enc=64 adam=2e-3 epochs=240 clip=5");
}

std::vector<Matrix> TimeVqVae::Generate(int64_t count, Rng& rng) const {
  TSG_CHECK(built()) << "Fit must be called before Generate";
  std::vector<Matrix> samples;
  samples.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const std::vector<int64_t> seq = impl_->prior.Sample(rng);
    const std::vector<int64_t> low_seq(seq.begin(), seq.begin() + kSubCodes);
    const std::vector<int64_t> high_seq(seq.begin() + kSubCodes, seq.end());
    const Var low_recon = impl_->low.decoder.Forward(
        Var::Constant(impl_->low.CodesToEmbedding(low_seq)));
    const Var high_recon = impl_->high.decoder.Forward(
        Var::Constant(impl_->high.CodesToEmbedding(high_seq)));
    std::vector<double> low_vec(static_cast<size_t>(low_recon.cols()));
    std::vector<double> high_vec(static_cast<size_t>(high_recon.cols()));
    for (int64_t c = 0; c < low_recon.cols(); ++c) {
      low_vec[static_cast<size_t>(c)] = low_recon.value()(0, c);
    }
    for (int64_t c = 0; c < high_recon.cols(); ++c) {
      high_vec[static_cast<size_t>(c)] = high_recon.value()(0, c);
    }
    Matrix sample = BandsToSample(low_vec, high_vec, impl_->layout);
    core::ClampToUnit(sample);
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace tsg::methods
