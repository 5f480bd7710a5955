#include "methods/ls4.h"

#include <algorithm>

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

constexpr int64_t kStateDim = 16;
constexpr double kKlWeight = 0.05;

/// One linear state-space layer with a learned diagonal transition:
///   s_{t+1} = a .* s_t + W_in u_t,   y_t = tanh(W_out s_t + b).
/// The diagonal is parameterized through a sigmoid to keep |a| < 1 (stable).
struct SsmLayer : public nn::Module {
  SsmLayer(int64_t input_dim, int64_t output_dim, Rng& rng)
      : a_raw(Var::Parameter(Matrix::Constant(1, kStateDim, 2.0))),
        input_proj(input_dim, kStateDim, rng),
        output_proj(kStateDim, output_dim, rng, nn::Activation::kTanh) {}

  std::vector<Var> Forward(const std::vector<Var>& inputs, Var* final_state) const {
    const int64_t batch = inputs[0].rows();
    const Var a = Sigmoid(a_raw);
    Var state = Var::Constant(Matrix(batch, kStateDim));
    std::vector<Var> outputs;
    outputs.reserve(inputs.size());
    for (const Var& u : inputs) {
      // Broadcast the (1 x state) diagonal across the batch.
      const Var decayed = MulRowVec(state, a);
      state = decayed + input_proj.Forward(u);
      outputs.push_back(output_proj.Forward(state));
    }
    if (final_state != nullptr) *final_state = state;
    return outputs;
  }

  std::vector<Var> Parameters() const override {
    std::vector<Var> params = {a_raw};
    for (const Var& p : input_proj.Parameters()) params.push_back(p);
    for (const Var& p : output_proj.Parameters()) params.push_back(p);
    return params;
  }

  Var a_raw;
  nn::Dense input_proj;
  nn::Dense output_proj;
};

}  // namespace

struct Ls4::Nets {
  Nets(int64_t n, int64_t latent, Rng& rng)
      : enc1(n, kStateDim, rng),
        enc2(kStateDim, kStateDim, rng),
        to_mu(kStateDim, latent, rng),
        to_logvar(kStateDim, latent, rng),
        dec_input(latent, kStateDim, rng, nn::Activation::kTanh),
        dec1(kStateDim, kStateDim, rng),
        dec2(kStateDim, kStateDim, rng),
        head(kStateDim, n, rng, nn::Activation::kSigmoid) {}

  /// Encodes a sequence into the posterior parameters.
  void Encode(const std::vector<Var>& x, Var* mu, Var* logvar) const {
    Var final1, final2;
    const std::vector<Var> h1 = enc1.Forward(x, &final1);
    enc2.Forward(h1, &final2);
    *mu = to_mu.Forward(final2);
    *logvar = to_logvar.Forward(final2);
  }

  /// Decodes latents into a sequence of `len` per-step outputs. The constant latent
  /// drive is offset by sinusoidal positional rows so the state-space trajectory
  /// carries temporal structure instead of settling at its fixed point.
  std::vector<Var> Decode(const Var& z, int64_t len) const {
    const Var u = dec_input.Forward(z);
    const linalg::Matrix pos = nn::SinusoidalPositions(len, kStateDim);
    std::vector<Var> inputs;
    inputs.reserve(static_cast<size_t>(len));
    for (int64_t t = 0; t < len; ++t) {
      inputs.push_back(ag::AddRowVec(u, Var::Constant(pos.Row(t))));
    }
    const std::vector<Var> h1 = dec1.Forward(inputs, nullptr);
    const std::vector<Var> h2 = dec2.Forward(h1, nullptr);
    std::vector<Var> out;
    out.reserve(h2.size());
    for (const Var& h : h2) out.push_back(head.Forward(h));
    return out;
  }

  SsmLayer enc1, enc2;
  nn::Dense to_mu, to_logvar;
  nn::Dense dec_input;
  SsmLayer dec1, dec2;
  nn::Dense head;
};

Ls4::Ls4() = default;

Ls4::~Ls4() = default;

Status Ls4::Fit(const core::Dataset& train, const core::FitOptions& options) {
  if (train.empty()) return Status::InvalidArgument("LS4: empty training set");
  seq_len_ = train.seq_len();
  num_features_ = train.num_features();

  Rng rng(options.seed ^ 0x1540);
  nets_ = std::make_unique<Nets>(num_features_, latent_dim_, rng);
  nn::Adam opt(nn::CollectParameters({&nets_->enc1, &nets_->enc2, &nets_->to_mu,
                                      &nets_->to_logvar, &nets_->dec_input,
                                      &nets_->dec1, &nets_->dec2, &nets_->head}),
               2e-3);

  const int epochs = ResolveEpochs(80, options);
  std::vector<int64_t> idx;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    MiniBatcher batcher(train.num_samples(), options.batch_size, rng);
    while (batcher.Next(&idx)) {
      const ag::StepScope step_scope;
      const int64_t batch = static_cast<int64_t>(idx.size());
      const std::vector<Var> x = SequenceBatch(train.samples(), idx);

      Var mu, logvar;
      nets_->Encode(x, &mu, &logvar);
      const Var eps = Randn(batch, latent_dim_, rng);
      const Var z = mu + Mul(Exp(ScalarMul(logvar, 0.5)), eps);
      const std::vector<Var> recon = nets_->Decode(z, seq_len_);

      Var recon_loss = MseLoss(recon[0], x[0]);
      for (size_t t = 1; t < x.size(); ++t) {
        recon_loss = recon_loss + MseLoss(recon[t], x[t]);
      }
      recon_loss = ScalarMul(recon_loss, 1.0 / static_cast<double>(seq_len_));
      const Var kl = ScalarMul(
          Mean(ScalarAdd(logvar, 1.0) - Square(mu) - Exp(logvar)), -0.5);
      const Var elbo = recon_loss + ScalarMul(kl, kKlWeight);
      TSG_RETURN_IF_ERROR(GuardedStep(opt, elbo, 5.0, {"LS4", "elbo", epoch}));
    }
  }
  return Status::Ok();
}

std::vector<Matrix> Ls4::Generate(int64_t count, Rng& rng) const {
  TSG_CHECK(nets_ != nullptr) << "Fit must be called before Generate";
  const Var z = Randn(count, latent_dim_, rng);
  return StepsToSamples(nets_->Decode(z, seq_len_));
}

StatusOr<core::MethodSnapshot> Ls4::Snapshot() const {
  if (nets_ == nullptr) {
    return Status::FailedPrecondition("LS4: Fit must succeed before Snapshot");
  }
  core::MethodSnapshot snap;
  PutConfig(&snap, "seq_len", seq_len_);
  PutConfig(&snap, "num_features", num_features_);
  PutConfig(&snap, "latent_dim", latent_dim_);
  AppendParams(&snap, nn::CollectParameters(
                          {&nets_->enc1, &nets_->enc2, &nets_->to_mu,
                           &nets_->to_logvar, &nets_->dec_input, &nets_->dec1,
                           &nets_->dec2, &nets_->head}));
  return snap;
}

Status Ls4::Restore(const core::MethodSnapshot& snapshot) {
  int64_t seq_len = 0, n = 0, latent = 0;
  TSG_RETURN_IF_ERROR(GetConfig(snapshot, "LS4", "seq_len", &seq_len));
  TSG_RETURN_IF_ERROR(GetConfig(snapshot, "LS4", "num_features", &n));
  TSG_RETURN_IF_ERROR(GetConfig(snapshot, "LS4", "latent_dim", &latent));
  if (seq_len <= 0 || n <= 0 || latent <= 0) {
    return Status::InvalidArgument("LS4: non-positive dimension in snapshot");
  }
  Rng rng(0);
  auto nets = std::make_unique<Nets>(n, latent, rng);
  const std::vector<Var> params = nn::CollectParameters(
      {&nets->enc1, &nets->enc2, &nets->to_mu, &nets->to_logvar,
       &nets->dec_input, &nets->dec1, &nets->dec2, &nets->head});
  TSG_RETURN_IF_ERROR(CheckParamCount(snapshot, "LS4", params.size()));
  TSG_RETURN_IF_ERROR(AssignParams(snapshot, "LS4", 0, params));
  nets_ = std::move(nets);
  seq_len_ = seq_len;
  num_features_ = n;
  latent_dim_ = latent;
  return Status::Ok();
}

uint64_t Ls4::HyperparameterDigest() const {
  return HyperDigest(
      "LS4 v1: latent=5 state=16 ssm-depth=2/2 kl=0.05 adam=2e-3 epochs=80 "
      "clip=5");
}

}  // namespace tsg::methods
