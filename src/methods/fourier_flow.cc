#include "methods/fourier_flow.h"

#include <algorithm>
#include <cmath>

#include "ag/ops.h"
#include "methods/common.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "signal/fft.h"

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

constexpr int64_t kHidden = 50;  // Paper setting.

/// One affine coupling layer y_b = x_b * exp(s(x_a)) + t(x_a) with tanh-bounded
/// scales; which half is transformed alternates between layers.
struct Coupling {
  Coupling(int64_t dim, bool transform_second, Rng& rng)
      : split(dim / 2),
        second(transform_second),
        scale_net({transform_second ? split : dim - split, kHidden,
                   transform_second ? dim - split : split},
                  rng, nn::Activation::kRelu, nn::Activation::kTanh),
        shift_net({transform_second ? split : dim - split, kHidden,
                   transform_second ? dim - split : split},
                  rng, nn::Activation::kRelu) {}

  /// Forward pass (data -> base); accumulates per-sample log|det| into `logdet`
  /// (a (batch x 1) Var).
  Var Forward(const Var& x, Var* logdet) const {
    const int64_t dim = x.cols();
    const Var xa = SliceCols(x, 0, split);
    const Var xb = SliceCols(x, split, dim - split);
    const Var& cond = second ? xa : xb;
    const Var& moved = second ? xb : xa;
    const Var s = scale_net.Forward(cond);
    const Var t = shift_net.Forward(cond);
    const Var yb = Mul(moved, Exp(s)) + t;
    if (logdet != nullptr) {
      const Var ones = Var::Constant(Matrix::Constant(s.cols(), 1, 1.0));
      *logdet = *logdet + MatMul(s, ones);
    }
    return second ? ConcatCols(xa, yb) : ConcatCols(yb, xb);
  }

  /// Inverse pass (base -> data), value-only.
  Matrix Inverse(const Matrix& y) const {
    const int64_t dim = y.cols();
    const Var ya = Var::Constant(y.Block(0, 0, y.rows(), split));
    const Var yb = Var::Constant(y.Block(0, split, y.rows(), dim - split));
    const Var& cond = second ? ya : yb;
    const Var& moved = second ? yb : ya;
    const Matrix s = scale_net.Forward(cond).value();
    const Matrix t = shift_net.Forward(cond).value();
    Matrix x_moved(moved.rows(), moved.cols());
    for (int64_t i = 0; i < x_moved.size(); ++i) {
      x_moved[i] = (moved.value()[i] - t[i]) * std::exp(-s[i]);
    }
    Matrix out(y.rows(), dim);
    if (second) {
      out.SetBlock(0, 0, ya.value());
      out.SetBlock(0, split, x_moved);
    } else {
      out.SetBlock(0, 0, x_moved);
      out.SetBlock(0, split, yb.value());
    }
    return out;
  }

  std::vector<Var> Parameters() const {
    std::vector<Var> params = scale_net.Parameters();
    for (const Var& p : shift_net.Parameters()) params.push_back(p);
    return params;
  }

  int64_t split;
  bool second;
  nn::Mlp scale_net;
  nn::Mlp shift_net;
};

}  // namespace

struct FourierFlow::Impl {
  Impl(int64_t dim, int num_flows, Rng& rng) {
    for (int k = 0; k < num_flows; ++k) {
      layers.push_back(std::make_unique<Coupling>(dim, k % 2 == 0, rng));
    }
  }

  std::vector<std::unique_ptr<Coupling>> layers;
};

FourierFlow::FourierFlow() = default;

FourierFlow::~FourierFlow() = default;

Status FourierFlow::Fit(const core::Dataset& train, const core::FitOptions& options) {
  if (train.empty()) {
    return Status::InvalidArgument("FourierFlow: empty training set");
  }
  seq_len_ = train.seq_len();
  num_features_ = train.num_features();
  const int64_t dim = seq_len_ * num_features_;
  if (dim < 2) return Status::InvalidArgument("FourierFlow needs l*N >= 2");

  // Paper: 3 flows for the Stock datasets, 5 for the rest.
  const bool is_stock = train.name().rfind("Stock", 0) == 0;
  const int num_flows = is_stock ? 3 : 5;

  Rng rng(options.seed ^ 0xF10F);
  impl_ = std::make_unique<Impl>(dim, num_flows, rng);

  // Precompute the spectral representation of every sample: per dimension the
  // orthonormal packed real DFT, concatenated feature-major.
  const int64_t count = train.num_samples();
  Matrix spectra(count, dim);
  std::vector<double> column(static_cast<size_t>(seq_len_));
  for (int64_t i = 0; i < count; ++i) {
    for (int64_t j = 0; j < num_features_; ++j) {
      for (int64_t t = 0; t < seq_len_; ++t) {
        column[static_cast<size_t>(t)] = train.sample(i)(t, j);
      }
      const std::vector<double> packed = signal::RealDftPacked(column);
      for (int64_t t = 0; t < seq_len_; ++t) {
        spectra(i, j * seq_len_ + t) = packed[static_cast<size_t>(t)];
      }
    }
  }

  std::vector<Var> params;
  for (const auto& layer : impl_->layers) {
    for (const Var& p : layer->Parameters()) params.push_back(p);
  }
  nn::Adam opt(params, 1e-3);

  const int epochs = ResolveEpochs(200, options);
  std::vector<int64_t> idx;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    MiniBatcher batcher(count, options.batch_size, rng);
    while (batcher.Next(&idx)) {
      const ag::StepScope step_scope;
      const int64_t batch = static_cast<int64_t>(idx.size());
      Matrix xb(batch, dim);
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t c = 0; c < dim; ++c) {
          xb(b, c) = spectra(idx[static_cast<size_t>(b)], c);
        }
      }
      Var z = Var::Constant(std::move(xb));
      Var logdet = Var::Constant(Matrix(batch, 1));
      for (const auto& layer : impl_->layers) z = layer->Forward(z, &logdet);

      // NLL (up to constants): mean over batch of 0.5*||z||^2 - logdet.
      const Var ones = Var::Constant(Matrix::Constant(dim, 1, 1.0));
      const Var sq = ScalarMul(MatMul(Square(z), ones), 0.5);
      const Var nll = Mean(sq - logdet);
      TSG_RETURN_IF_ERROR(GuardedStep(opt, nll, 5.0, {"Fourier-Flow", "nll", epoch}));
    }
  }
  return Status::Ok();
}

namespace {

/// Inverse-DFTs each packed-spectrum row back into a clamped (l x N) sample.
std::vector<Matrix> SpectraToSamples(const Matrix& z, int64_t l, int64_t n) {
  std::vector<Matrix> samples;
  samples.reserve(static_cast<size_t>(z.rows()));
  std::vector<double> packed(static_cast<size_t>(l));
  for (int64_t i = 0; i < z.rows(); ++i) {
    Matrix sample(l, n);
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t t = 0; t < l; ++t) {
        packed[static_cast<size_t>(t)] = z(i, j * l + t);
      }
      const std::vector<double> column = signal::InverseRealDftPacked(packed);
      for (int64_t t = 0; t < l; ++t) {
        sample(t, j) = column[static_cast<size_t>(t)];
      }
    }
    core::ClampToUnit(sample);
    samples.push_back(std::move(sample));
  }
  return samples;
}

}  // namespace

std::vector<Matrix> FourierFlow::Generate(int64_t count, Rng& rng) const {
  TSG_CHECK(impl_ != nullptr) << "Fit must be called before Generate";
  const int64_t dim = seq_len_ * num_features_;
  Matrix z(count, dim);
  rng.FillNormal(z.data(), z.size());
  for (auto it = impl_->layers.rbegin(); it != impl_->layers.rend(); ++it) {
    z = (*it)->Inverse(z);
  }
  return SpectraToSamples(z, seq_len_, num_features_);
}

StatusOr<core::MethodSnapshot> FourierFlow::Snapshot() const {
  if (impl_ == nullptr) {
    return Status::FailedPrecondition(
        "FourierFlow: Fit must succeed before Snapshot");
  }
  core::MethodSnapshot snap;
  PutConfig(&snap, "seq_len", seq_len_);
  PutConfig(&snap, "num_features", num_features_);
  PutConfig(&snap, "num_flows", static_cast<int64_t>(impl_->layers.size()));
  std::vector<Var> params;
  for (const auto& layer : impl_->layers) {
    for (const Var& p : layer->Parameters()) params.push_back(p);
  }
  AppendParams(&snap, params);
  return snap;
}

Status FourierFlow::Restore(const core::MethodSnapshot& snapshot) {
  int64_t seq_len = 0, n = 0, num_flows = 0;
  TSG_RETURN_IF_ERROR(GetConfig(snapshot, "FourierFlow", "seq_len", &seq_len));
  TSG_RETURN_IF_ERROR(GetConfig(snapshot, "FourierFlow", "num_features", &n));
  TSG_RETURN_IF_ERROR(GetConfig(snapshot, "FourierFlow", "num_flows", &num_flows));
  if (seq_len <= 0 || n <= 0 || seq_len * n < 2 || num_flows <= 0 ||
      num_flows > 64) {
    return Status::InvalidArgument("FourierFlow: invalid snapshot config");
  }
  Rng rng(0);
  auto impl = std::make_unique<Impl>(seq_len * n, static_cast<int>(num_flows),
                                     rng);
  std::vector<Var> params;
  for (const auto& layer : impl->layers) {
    for (const Var& p : layer->Parameters()) params.push_back(p);
  }
  TSG_RETURN_IF_ERROR(CheckParamCount(snapshot, "FourierFlow", params.size()));
  TSG_RETURN_IF_ERROR(AssignParams(snapshot, "FourierFlow", 0, params));
  impl_ = std::move(impl);
  seq_len_ = seq_len;
  num_features_ = n;
  return Status::Ok();
}

uint64_t FourierFlow::HyperparameterDigest() const {
  return HyperDigest(
      "FourierFlow v1: hidden=50 flows=3-stock/5-default adam=1e-3 "
      "epochs=200 clip=5");
}

}  // namespace tsg::methods
