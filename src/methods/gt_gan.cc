#include "methods/gt_gan.h"

#include <algorithm>

#include "ag/ops.h"
#include "methods/common.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"

namespace tsg::methods {

using ag::AddScaled;
using ag::BceWithLogits;
using ag::ColMeanVar;
using ag::ConcatCols;
using ag::Detach;
using ag::MseLoss;
using ag::Randn;
using ag::ScalarMul;

namespace {
constexpr int kEulerSubsteps = 4;  // Generator ODE sub-steps per observation.
constexpr int kDiscSubsteps = 2;   // Discriminator ODE sub-steps per observation.
constexpr int kMlePretrainEpochs = 2;  // Paper: P_MLE = 2.
}  // namespace

struct GtGan::Nets {
  Nets(int64_t n, int64_t hidden, int64_t noise_dim, Rng& rng)
      : gen_init(noise_dim, hidden, rng, nn::Activation::kTanh),
        gen_field({hidden + noise_dim, hidden, hidden}, rng, nn::Activation::kTanh,
                  nn::Activation::kTanh),
        gen_head(hidden, n, rng, nn::Activation::kSigmoid),
        disc_field({hidden, hidden, hidden}, rng, nn::Activation::kTanh,
                   nn::Activation::kTanh),
        disc_jump(n, hidden, rng),
        disc_head(hidden, 1, rng) {}

  /// Latent-ODE generator: Euler-integrate h' = f(h, z_t) between observations.
  std::vector<Var> Generate(const Var& z0, const std::vector<Var>& step_noise) const {
    Var h = gen_init.Forward(z0);
    std::vector<Var> out;
    out.reserve(step_noise.size());
    const double dt = 1.0 / static_cast<double>(kEulerSubsteps);
    for (const Var& z_t : step_noise) {
      for (int s = 0; s < kEulerSubsteps; ++s) {
        const Var dh = gen_field.Forward(ConcatCols(h, z_t));
        h = AddScaled(h, dh, dt);  // h + dt * dh in one tape node
      }
      out.push_back(gen_head.Forward(h));
    }
    return out;
  }

  /// GRU-ODE discriminator: evolve by Euler between observations, jump at each.
  Var Discriminate(const std::vector<Var>& series) const {
    const int64_t batch = series[0].rows();
    Var h = disc_jump.InitialState(batch);
    const double dt = 1.0 / static_cast<double>(kDiscSubsteps);
    for (const Var& x_t : series) {
      for (int s = 0; s < kDiscSubsteps; ++s) {
        const Var dh = disc_field.Forward(h);
        h = AddScaled(h, dh, dt);
      }
      h = disc_jump.Forward(x_t, h);
    }
    return disc_head.Forward(h);
  }

  nn::Dense gen_init;
  nn::Mlp gen_field;
  nn::Dense gen_head;
  nn::Mlp disc_field;
  nn::GruCell disc_jump;
  nn::Dense disc_head;
};

GtGan::GtGan() = default;

GtGan::~GtGan() = default;

Status GtGan::Fit(const core::Dataset& train, const core::FitOptions& options) {
  if (train.empty()) return Status::InvalidArgument("GT-GAN: empty training set");
  const int64_t n = train.num_features();
  Rng rng(options.seed ^ 0x67AD);
  TSG_RETURN_IF_ERROR(BuildFrom({{"seq_len", train.seq_len()},
                                 {"num_features", n},
                                 {"noise_dim", 8},
                                 {"hidden", std::clamp<int64_t>(2 * n, 16, 32)}},
                                rng));

  nn::Adam g_opt(nn::CollectParameters({&nets_->gen_init, &nets_->gen_field,
                                        &nets_->gen_head}),
                 1e-3);
  nn::Adam d_opt(nn::CollectParameters({&nets_->disc_field, &nets_->disc_jump,
                                        &nets_->disc_head}),
                 1e-3);

  std::vector<int64_t> idx;

  // ---- MLE pretraining (P_MLE = 2): per-step moment matching against the data. ----
  for (int epoch = 0; epoch < kMlePretrainEpochs; ++epoch) {
    MiniBatcher batcher(train.num_samples(), options.batch_size, rng);
    while (batcher.Next(&idx)) {
      const ag::StepScope step_scope;
      const int64_t batch = static_cast<int64_t>(idx.size());
      const std::vector<Var> real = SequenceBatch(train.samples(), idx);
      const std::vector<Var> noise = NoiseSequence(seq_len_, batch, noise_dim_, rng);
      const std::vector<Var> fake =
          nets_->Generate(Randn(batch, noise_dim_, rng), noise);
      Var loss = MseLoss(ColMeanVar(fake[0]), ColMeanVar(real[0]));
      for (int64_t t = 1; t < seq_len_; ++t) {
        loss = loss + MseLoss(ColMeanVar(fake[static_cast<size_t>(t)]),
                              ColMeanVar(real[static_cast<size_t>(t)]));
      }
      const Var mle_loss = ScalarMul(loss, 1.0 / static_cast<double>(seq_len_));
      TSG_RETURN_IF_ERROR(
          GuardedStep(g_opt, mle_loss, 5.0, {"GT-GAN", "mle-pretrain", epoch}));
    }
  }

  // ---- Adversarial training. ----
  const int epochs = ResolveEpochs(150, options);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    MiniBatcher batcher(train.num_samples(), options.batch_size, rng);
    while (batcher.Next(&idx)) {
      // `fake` is shared by the D and G updates; the scope spans both.
      const ag::StepScope step_scope;
      const int64_t batch = static_cast<int64_t>(idx.size());
      const Var ones = Var::Constant(Matrix::Constant(batch, 1, 1.0));
      const Var zeros = Var::Constant(Matrix::Constant(batch, 1, 0.0));
      const std::vector<Var> real = SequenceBatch(train.samples(), idx);
      const std::vector<Var> noise = NoiseSequence(seq_len_, batch, noise_dim_, rng);
      const std::vector<Var> fake =
          nets_->Generate(Randn(batch, noise_dim_, rng), noise);

      std::vector<Var> fake_detached;
      for (const Var& f : fake) fake_detached.push_back(Detach(f));
      const Var d_loss = BceWithLogits(nets_->Discriminate(real), ones) +
                         BceWithLogits(nets_->Discriminate(fake_detached), zeros);
      TSG_RETURN_IF_ERROR(GuardedStep(d_opt, d_loss, 5.0, {"GT-GAN", "disc", epoch}));

      const Var g_loss = BceWithLogits(nets_->Discriminate(fake), ones);
      TSG_RETURN_IF_ERROR(GuardedStep(g_opt, g_loss, 5.0, {"GT-GAN", "gen", epoch}));
    }
  }
  return Status::Ok();
}

std::vector<Matrix> GtGan::Generate(int64_t count, Rng& rng) const {
  TSG_CHECK(built()) << "Fit must be called before Generate";
  const std::vector<Var> noise = NoiseSequence(seq_len_, count, noise_dim_, rng);
  return StepsToSamples(nets_->Generate(Randn(count, noise_dim_, rng), noise));
}

Status GtGan::Build(const Dims& dims, Rng& rng) {
  TSG_RETURN_IF_ERROR(ReadDims(dims, {{"seq_len", &seq_len_},
                                      {"num_features", &num_features_},
                                      {"noise_dim", &noise_dim_},
                                      {"hidden", &hidden_}}));
  nets_ = std::make_unique<Nets>(num_features_, hidden_, noise_dim_, rng);
  return Status::Ok();
}

std::vector<Matrix*> GtGan::State() const {
  return ValuesOf(nn::CollectParameters({&nets_->gen_init, &nets_->gen_field,
                                         &nets_->gen_head, &nets_->disc_field,
                                         &nets_->disc_jump, &nets_->disc_head}));
}

uint64_t GtGan::HyperparameterDigest() const {
  return HyperDigest(
      "GT-GAN v1: noise=8 hidden=clamp(2N,16,32) euler=4/2 mle-pretrain=2 "
      "adam=1e-3 epochs=150 clip=5");
}

}  // namespace tsg::methods
