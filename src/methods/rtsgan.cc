#include "methods/rtsgan.h"

#include <algorithm>

#include "ag/ops.h"
#include "methods/common.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"

namespace tsg::methods {

using ag::AddRowVec;
using ag::Detach;
using ag::Mean;
using ag::MseLoss;
using ag::Neg;
using ag::Randn;
using ag::ScalarMul;

struct RtsGan::Nets {
  Nets(int64_t n, int64_t hidden, int64_t latent, int64_t noise, Rng& rng)
      : encoder(n, hidden, 1, rng),
        to_latent(hidden, latent, rng, nn::Activation::kTanh),
        from_latent(latent, hidden, rng, nn::Activation::kTanh),
        decoder(hidden, hidden, 1, rng),
        dec_head(hidden, n, rng, nn::Activation::kSigmoid),
        latent_gen({noise, 64, 64, latent}, rng, nn::Activation::kRelu,
                   nn::Activation::kTanh),
        critic({latent, 64, 64, 1}, rng, nn::Activation::kRelu) {}

  Var Encode(const std::vector<Var>& x) const {
    std::vector<Var> finals;
    encoder.Forward(x, &finals);
    return to_latent.Forward(finals.back());
  }

  std::vector<Var> Decode(const Var& latent, int64_t len) const {
    const Var ctx = from_latent.Forward(latent);
    // Positional rows keep the recurrent decoder from collapsing onto its
    // constant-input fixed point.
    const linalg::Matrix pos = nn::SinusoidalPositions(len, ctx.cols());
    std::vector<Var> inputs;
    inputs.reserve(static_cast<size_t>(len));
    for (int64_t t = 0; t < len; ++t) {
      inputs.push_back(AddRowVec(ctx, Var::Constant(pos.Row(t))));
    }
    std::vector<Var> hidden = decoder.Forward(inputs);
    std::vector<Var> out;
    out.reserve(hidden.size());
    for (const Var& h : hidden) out.push_back(dec_head.Forward(h));
    return out;
  }

  nn::GruStack encoder;
  nn::Dense to_latent;
  nn::Dense from_latent;
  nn::GruStack decoder;
  nn::Dense dec_head;
  nn::Mlp latent_gen;
  nn::Mlp critic;
};

RtsGan::RtsGan() = default;

RtsGan::~RtsGan() = default;

Status RtsGan::Fit(const core::Dataset& train, const core::FitOptions& options) {
  if (train.empty()) return Status::InvalidArgument("RTSGAN: empty training set");
  const int64_t n = train.num_features();
  const int64_t latent_dim = std::clamp<int64_t>(2 * n, 8, 24);
  Rng rng(options.seed ^ 0x2757);
  TSG_RETURN_IF_ERROR(BuildFrom({{"seq_len", train.seq_len()},
                                 {"num_features", n},
                                 {"latent_dim", latent_dim},
                                 {"noise_dim", latent_dim},
                                 {"hidden", std::clamp<int64_t>(2 * n, 12, 36)}},
                                rng));

  // ---- Stage 1: autoencoder. ----
  nn::Adam ae_opt(nn::CollectParameters({&nets_->encoder, &nets_->to_latent,
                                         &nets_->from_latent, &nets_->decoder,
                                         &nets_->dec_head}),
                  2e-3, 0.9, 0.999);
  const int ae_epochs = ResolveEpochs(45, options);
  std::vector<int64_t> idx;
  for (int epoch = 0; epoch < ae_epochs; ++epoch) {
    MiniBatcher batcher(train.num_samples(), options.batch_size, rng);
    while (batcher.Next(&idx)) {
      const ag::StepScope step_scope;
      const std::vector<Var> x = SequenceBatch(train.samples(), idx);
      const std::vector<Var> recon = nets_->Decode(nets_->Encode(x), seq_len_);
      Var loss = MseLoss(recon[0], x[0]);
      for (size_t t = 1; t < x.size(); ++t) loss = loss + MseLoss(recon[t], x[t]);
      const Var ae_loss = ScalarMul(loss, 1.0 / static_cast<double>(seq_len_));
      TSG_RETURN_IF_ERROR(
          GuardedStep(ae_opt, ae_loss, 5.0, {"RTSGAN", "autoencoder", epoch}));
    }
  }

  // ---- Stage 2: WGAN in latent space (clipped critic, 5 critic steps per G). ----
  const auto gen_params = nets_->latent_gen.Parameters();
  const auto critic_params = nets_->critic.Parameters();
  nn::Adam g_opt(gen_params, 1e-3, 0.9, 0.999);
  nn::Adam c_opt(critic_params, 1e-3, 0.9, 0.999);
  constexpr double kClip = 0.03;
  constexpr int kCriticSteps = 5;

  const int gan_steps = ResolveEpochs(250, options);
  const int64_t batch = std::min<int64_t>(options.batch_size, train.num_samples());
  for (int step = 0; step < gan_steps; ++step) {
    for (int c = 0; c < kCriticSteps; ++c) {
      const ag::StepScope step_scope;
      std::vector<int64_t> sample_idx(static_cast<size_t>(batch));
      for (auto& v : sample_idx) v = rng.UniformInt(train.num_samples());
      const Var real_latent =
          Detach(nets_->Encode(SequenceBatch(train.samples(), sample_idx)));
      const Var fake_latent =
          Detach(nets_->latent_gen.Forward(Randn(batch, noise_dim_, rng)));
      // Critic maximizes E[c(real)] - E[c(fake)] -> minimize the negation. WGAN
      // clips parameter values, not gradients, so GuardedStep only checks the
      // gradient norm here (clip_norm <= 0).
      const Var c_loss = Mean(nets_->critic.Forward(fake_latent)) -
                         Mean(nets_->critic.Forward(real_latent));
      TSG_RETURN_IF_ERROR(
          GuardedStep(c_opt, c_loss, /*clip_norm=*/0.0, {"RTSGAN", "critic", step}));
      nn::ClipParameterValues(critic_params, kClip);
    }
    {
      const ag::StepScope step_scope;
      const Var fake_latent =
          nets_->latent_gen.Forward(Randn(batch, noise_dim_, rng));
      const Var g_loss = Neg(Mean(nets_->critic.Forward(fake_latent)));
      TSG_RETURN_IF_ERROR(GuardedStep(g_opt, g_loss, 5.0, {"RTSGAN", "gen", step}));
    }
  }
  return Status::Ok();
}

std::vector<Matrix> RtsGan::Generate(int64_t count, Rng& rng) const {
  TSG_CHECK(built()) << "Fit must be called before Generate";
  const Var latent = nets_->latent_gen.Forward(Randn(count, noise_dim_, rng));
  return StepsToSamples(nets_->Decode(latent, seq_len_));
}

Status RtsGan::Build(const Dims& dims, Rng& rng) {
  TSG_RETURN_IF_ERROR(ReadDims(dims, {{"seq_len", &seq_len_},
                                      {"num_features", &num_features_},
                                      {"latent_dim", &latent_dim_},
                                      {"noise_dim", &noise_dim_},
                                      {"hidden", &hidden_}}));
  nets_ =
      std::make_unique<Nets>(num_features_, hidden_, latent_dim_, noise_dim_, rng);
  return Status::Ok();
}

std::vector<Matrix*> RtsGan::State() const {
  return ValuesOf(nn::CollectParameters(
      {&nets_->encoder, &nets_->to_latent, &nets_->from_latent, &nets_->decoder,
       &nets_->dec_head, &nets_->latent_gen, &nets_->critic}));
}

uint64_t RtsGan::HyperparameterDigest() const {
  return HyperDigest(
      "RTSGAN v1: latent=clamp(2N,8,24) hidden=clamp(2N,12,36) mlp=64x64 "
      "wgan-clip epochs=45+ae clip=5");
}

}  // namespace tsg::methods
