#include "methods/timevae.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "ag/ops.h"
#include "methods/common.h"
#include "nn/dense.h"
#include "nn/optimizer.h"

namespace tsg::methods {

using ag::Abs;
using ag::Add;
using ag::AddRowVec;
using ag::Backward;
using ag::BceWithLogits;
using ag::ColMeanVar;
using ag::ColSum;
using ag::ConcatCols;
using ag::ConcatRows;
using ag::Detach;
using ag::Div;
using ag::Exp;
using ag::L1Loss;
using ag::Log;
using ag::MatMul;
using ag::Mean;
using ag::MseLoss;
using ag::Mul;
using ag::MulRowVec;
using ag::Neg;
using ag::Randn;
using ag::ScalarAdd;
using ag::ScalarMul;
using ag::Sigmoid;
using ag::SliceCols;
using ag::SliceRows;
using ag::Softplus;
using ag::Sqrt;
using ag::Square;
using ag::Sum;
using ag::Tanh;

namespace {

constexpr int kTrendDegree = 2;     // Polynomial trend basis degree.
constexpr int kSeasonHarmonics = 2; // Fourier seasonal harmonics.
constexpr double kKlWeight = 0.05;

/// Fixed basis matrices evaluated over normalized time in [0, 1].
/// Trend basis: (degree+1 x l) rows are t^0, t^1, ..., t^d.
Matrix TrendBasis(int64_t l) {
  Matrix basis(kTrendDegree + 1, l);
  for (int64_t t = 0; t < l; ++t) {
    const double x = static_cast<double>(t) / static_cast<double>(std::max<int64_t>(
                                                  l - 1, 1));
    double power = 1.0;
    for (int k = 0; k <= kTrendDegree; ++k) {
      basis(k, t) = power;
      power *= x;
    }
  }
  return basis;
}

/// Seasonal basis: (2K x l) rows are sin/cos at harmonics 1..K over the window.
Matrix SeasonBasis(int64_t l) {
  Matrix basis(2 * kSeasonHarmonics, l);
  for (int64_t t = 0; t < l; ++t) {
    for (int k = 1; k <= kSeasonHarmonics; ++k) {
      const double angle = 2.0 * std::numbers::pi * k * static_cast<double>(t) /
                           static_cast<double>(l);
      basis(2 * (k - 1), t) = std::sin(angle);
      basis(2 * (k - 1) + 1, t) = std::cos(angle);
    }
  }
  return basis;
}

}  // namespace

struct TimeVae::Nets {
  Nets(int64_t l, int64_t n, int64_t latent, Rng& rng)
      : encoder({l * n, 96, 48}, rng, nn::Activation::kRelu,
                nn::Activation::kRelu),
        to_mu(48, latent, rng),
        to_logvar(48, latent, rng),
        trend_coeff(latent, (kTrendDegree + 1) * n, rng),
        season_coeff(latent, 2 * kSeasonHarmonics * n, rng),
        residual({latent, 96, l * n}, rng, nn::Activation::kRelu),
        trend_mix(Var::Constant(BuildMix(TrendBasis(l), n))),
        season_mix(Var::Constant(BuildMix(SeasonBasis(l), n))),
        seq_len(l),
        features(n) {}

  /// Expands a (k x l) time basis into the ((k*n) x (l*n)) mixing matrix that maps
  /// per-feature coefficient blocks onto the flattened (time, feature) layout.
  static Matrix BuildMix(const Matrix& basis, int64_t n) {
    const int64_t k = basis.rows(), l = basis.cols();
    Matrix mix(k * n, l * n);
    for (int64_t row = 0; row < k; ++row) {
      for (int64_t j = 0; j < n; ++j) {
        for (int64_t t = 0; t < l; ++t) mix(row * n + j, t * n + j) = basis(row, t);
      }
    }
    return mix;
  }

  /// Decodes latents (batch x latent) into the flattened window (batch x l*n):
  /// sigmoid(trend + seasonality + residual) — the paper's interpretable decoder.
  Var Decode(const Var& z) const {
    const Var trend = MatMul(trend_coeff.Forward(z), trend_mix);
    const Var season = MatMul(season_coeff.Forward(z), season_mix);
    return Sigmoid(residual.Forward(z) + trend + season);
  }

  nn::Mlp encoder;
  nn::Dense to_mu;
  nn::Dense to_logvar;
  nn::Dense trend_coeff;
  nn::Dense season_coeff;
  nn::Mlp residual;
  Var trend_mix;
  Var season_mix;
  int64_t seq_len;
  int64_t features;
};

TimeVae::TimeVae() = default;

TimeVae::~TimeVae() = default;

Status TimeVae::Fit(const core::Dataset& train, const core::FitOptions& options) {
  if (train.empty()) return Status::InvalidArgument("TimeVAE: empty training set");
  seq_len_ = train.seq_len();
  num_features_ = train.num_features();

  Rng rng(options.seed ^ 0x71AE);
  nets_ = std::make_unique<Nets>(seq_len_, num_features_, latent_dim_, rng);
  nn::Adam opt(nn::CollectParameters({&nets_->encoder, &nets_->to_mu,
                                      &nets_->to_logvar, &nets_->trend_coeff,
                                      &nets_->season_coeff, &nets_->residual}),
               2e-3);

  const Matrix flat_all = train.Flatten();
  const int epochs = ResolveEpochs(120, options);
  std::vector<int64_t> idx;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    MiniBatcher batcher(train.num_samples(), options.batch_size, rng);
    while (batcher.Next(&idx)) {
      const ag::StepScope step_scope;
      const int64_t batch = static_cast<int64_t>(idx.size());
      Matrix xb(batch, flat_all.cols());
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t c = 0; c < flat_all.cols(); ++c) {
          xb(b, c) = flat_all(idx[static_cast<size_t>(b)], c);
        }
      }
      const Var x = Var::Constant(std::move(xb));

      const Var enc = nets_->encoder.Forward(x);
      const Var mu = nets_->to_mu.Forward(enc);
      const Var logvar = nets_->to_logvar.Forward(enc);
      const Var eps = Randn(batch, latent_dim_, rng);
      const Var z = mu + Mul(Exp(ScalarMul(logvar, 0.5)), eps);
      const Var recon = nets_->Decode(z);

      const Var recon_loss = MseLoss(recon, x);
      // KL(q || N(0, I)) = -0.5 * mean(1 + logvar - mu^2 - exp(logvar)).
      const Var kl = ScalarMul(
          Mean(ScalarAdd(logvar, 1.0) - Square(mu) - Exp(logvar)), -0.5);
      const Var elbo = recon_loss + ScalarMul(kl, kKlWeight);
      TSG_RETURN_IF_ERROR(GuardedStep(opt, elbo, 5.0, {"TimeVAE", "elbo", epoch}));
    }
  }
  return Status::Ok();
}

namespace {

/// Un-flattens decoder rows (batch x l*n) back into clamped (l x n) samples.
std::vector<Matrix> RowsToSamples(const Matrix& flat, int64_t l, int64_t n) {
  std::vector<Matrix> samples;
  samples.reserve(static_cast<size_t>(flat.rows()));
  for (int64_t b = 0; b < flat.rows(); ++b) {
    Matrix s(l, n);
    for (int64_t t = 0; t < l; ++t) {
      for (int64_t j = 0; j < n; ++j) s(t, j) = flat(b, t * n + j);
    }
    core::ClampToUnit(s);
    samples.push_back(std::move(s));
  }
  return samples;
}

}  // namespace

std::vector<Matrix> TimeVae::Generate(int64_t count, Rng& rng) const {
  TSG_CHECK(nets_ != nullptr) << "Fit must be called before Generate";
  const Var z = Randn(count, latent_dim_, rng);
  const Var flat = nets_->Decode(z);
  return RowsToSamples(flat.value(), seq_len_, num_features_);
}

StatusOr<core::MethodSnapshot> TimeVae::Snapshot() const {
  if (nets_ == nullptr) {
    return Status::FailedPrecondition("TimeVAE: Fit must succeed before Snapshot");
  }
  core::MethodSnapshot snap;
  PutConfig(&snap, "seq_len", seq_len_);
  PutConfig(&snap, "num_features", num_features_);
  PutConfig(&snap, "latent_dim", latent_dim_);
  AppendParams(&snap, nn::CollectParameters(
                          {&nets_->encoder, &nets_->to_mu, &nets_->to_logvar,
                           &nets_->trend_coeff, &nets_->season_coeff,
                           &nets_->residual}));
  return snap;
}

Status TimeVae::Restore(const core::MethodSnapshot& snapshot) {
  int64_t seq_len = 0, n = 0, latent = 0;
  TSG_RETURN_IF_ERROR(GetConfig(snapshot, "TimeVAE", "seq_len", &seq_len));
  TSG_RETURN_IF_ERROR(GetConfig(snapshot, "TimeVAE", "num_features", &n));
  TSG_RETURN_IF_ERROR(GetConfig(snapshot, "TimeVAE", "latent_dim", &latent));
  if (seq_len <= 0 || n <= 0 || latent <= 0) {
    return Status::InvalidArgument("TimeVAE: non-positive dimension in snapshot");
  }
  // The trend/season mixing matrices are deterministic functions of (l, n), so
  // the constructor rebuilds them; only trainable tensors come from the snapshot.
  Rng rng(0);
  auto nets = std::make_unique<Nets>(seq_len, n, latent, rng);
  const std::vector<Var> params = nn::CollectParameters(
      {&nets->encoder, &nets->to_mu, &nets->to_logvar, &nets->trend_coeff,
       &nets->season_coeff, &nets->residual});
  TSG_RETURN_IF_ERROR(CheckParamCount(snapshot, "TimeVAE", params.size()));
  TSG_RETURN_IF_ERROR(AssignParams(snapshot, "TimeVAE", 0, params));
  nets_ = std::move(nets);
  seq_len_ = seq_len;
  num_features_ = n;
  latent_dim_ = latent;
  return Status::Ok();
}

uint64_t TimeVae::HyperparameterDigest() const {
  return HyperDigest(
      "TimeVAE v1: latent=8 enc=96x48 residual=96 trend-deg=2 harmonics=2 "
      "kl=0.05 adam=2e-3 epochs=120 clip=5");
}

}  // namespace tsg::methods
