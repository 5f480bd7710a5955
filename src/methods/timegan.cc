#include "methods/timegan.h"

#include <algorithm>
#include <cmath>

#include "ag/ops.h"
#include "methods/common.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"

namespace tsg::methods {

using ag::Abs;
using ag::BceWithLogits;
using ag::ColMeanVar;
using ag::ConcatRows;
using ag::Detach;
using ag::MatMul;
using ag::Mean;
using ag::MseLoss;
using ag::ScalarAdd;
using ag::ScalarMul;
using ag::Sigmoid;
using ag::Sqrt;
using ag::Square;

struct TimeGan::Nets {
  Nets(int64_t n, int64_t hidden, int64_t noise_dim, Rng& rng)
      : embedder(n, hidden, 2, rng),
        recovery_head(hidden, n, rng, nn::Activation::kSigmoid),
        generator(noise_dim, hidden, 2, rng),
        gen_head(hidden, hidden, rng, nn::Activation::kSigmoid),
        supervisor(hidden, hidden, 1, rng),
        sup_head(hidden, hidden, rng, nn::Activation::kSigmoid),
        discriminator(hidden, hidden, 1, rng),
        disc_head(hidden, 1, rng) {}

  std::vector<Var> Embed(const std::vector<Var>& x) const {
    std::vector<Var> h = embedder.Forward(x);
    for (Var& v : h) v = Sigmoid(v);
    return h;
  }

  std::vector<Var> Recover(const std::vector<Var>& h) const {
    std::vector<Var> x;
    x.reserve(h.size());
    for (const Var& v : h) x.push_back(recovery_head.Forward(v));
    return x;
  }

  std::vector<Var> GenerateLatent(const std::vector<Var>& noise) const {
    std::vector<Var> g = generator.Forward(noise);
    std::vector<Var> h;
    h.reserve(g.size());
    for (const Var& v : g) h.push_back(gen_head.Forward(v));
    return h;
  }

  std::vector<Var> Supervise(const std::vector<Var>& h) const {
    std::vector<Var> s = supervisor.Forward(h);
    std::vector<Var> out;
    out.reserve(s.size());
    for (const Var& v : s) out.push_back(sup_head.Forward(v));
    return out;
  }

  Var Discriminate(const std::vector<Var>& h) const {
    const std::vector<Var> d = discriminator.Forward(h);
    Var logits = disc_head.Forward(d[0]);
    for (size_t t = 1; t < d.size(); ++t) logits = logits + disc_head.Forward(d[t]);
    return ScalarMul(logits, 1.0 / static_cast<double>(d.size()));
  }

  nn::GruStack embedder;
  nn::Dense recovery_head;
  nn::GruStack generator;
  nn::Dense gen_head;
  nn::GruStack supervisor;
  nn::Dense sup_head;
  nn::GruStack discriminator;
  nn::Dense disc_head;
};

namespace {

/// Mean reconstruction loss over a sequence.
Var SequenceMse(const std::vector<Var>& pred, const std::vector<Var>& target) {
  Var loss = MseLoss(pred[0], target[0]);
  for (size_t t = 1; t < pred.size(); ++t) loss = loss + MseLoss(pred[t], target[t]);
  return ScalarMul(loss, 1.0 / static_cast<double>(pred.size()));
}

/// Supervised loss: S(h_t) should predict h_{t+1}.
Var SupervisedLoss(const TimeGan::Nets& nets, const std::vector<Var>& h) {
  const std::vector<Var> s = nets.Supervise(h);
  Var loss = MseLoss(s[0], h[1]);
  for (size_t t = 1; t + 1 < h.size(); ++t) loss = loss + MseLoss(s[t], h[t + 1]);
  return ScalarMul(loss, 1.0 / static_cast<double>(h.size() - 1));
}

/// TimeGAN's moment loss: match per-feature batch mean and std of x_hat to x.
Var MomentLoss(const std::vector<Var>& fake_x, const std::vector<Var>& real_x) {
  Var fake_all = fake_x[0];
  Var real_all = real_x[0];
  for (size_t t = 1; t < fake_x.size(); ++t) {
    fake_all = ConcatRows(fake_all, fake_x[t]);
    real_all = ConcatRows(real_all, Detach(real_x[t]));
  }
  const Var fake_mean = ColMeanVar(fake_all);
  const Var real_mean = ColMeanVar(real_all);
  const Var mean_loss = Mean(Abs(fake_mean - real_mean));
  const Var fake_var =
      ColMeanVar(Square(fake_all - MatMul(Var::Constant(Matrix::Constant(
                                              fake_all.rows(), 1, 1.0)),
                                          fake_mean)));
  const Var real_var =
      ColMeanVar(Square(real_all - MatMul(Var::Constant(Matrix::Constant(
                                              real_all.rows(), 1, 1.0)),
                                          real_mean)));
  const Var std_loss = Mean(Abs(Sqrt(ScalarAdd(fake_var, 1e-6)) -
                                Sqrt(ScalarAdd(real_var, 1e-6))));
  return mean_loss + std_loss;
}

}  // namespace

TimeGan::TimeGan() = default;

TimeGan::~TimeGan() = default;

Status TimeGan::Fit(const core::Dataset& train, const core::FitOptions& options) {
  if (train.empty()) return Status::InvalidArgument("TimeGAN: empty training set");
  const int64_t n = train.num_features();
  Rng rng(options.seed ^ 0x716A);
  TSG_RETURN_IF_ERROR(BuildFrom({{"seq_len", train.seq_len()},
                                 {"num_features", n},
                                 {"noise_dim", std::clamp<int64_t>(n, 4, 16)},
                                 {"hidden", std::clamp<int64_t>(2 * n, 12, 36)}},
                                rng));

  auto ae_params = nn::CollectParameters({&nets_->embedder, &nets_->recovery_head});
  auto sup_params = nn::CollectParameters({&nets_->supervisor, &nets_->sup_head});
  auto gen_params = nn::CollectParameters(
      {&nets_->generator, &nets_->gen_head, &nets_->supervisor, &nets_->sup_head});
  auto disc_params =
      nn::CollectParameters({&nets_->discriminator, &nets_->disc_head});

  nn::Adam ae_opt(ae_params, 2e-3);
  nn::Adam sup_opt(sup_params, 2e-3);
  nn::Adam gen_opt(gen_params, 1e-3);
  nn::Adam disc_opt(disc_params, 1e-3);
  nn::Adam ae_joint_opt(ae_params, 1e-3);

  std::vector<int64_t> idx;

  // ---- Phase 1: embedding network training (autoencoder). ----
  const int ae_epochs = ResolveEpochs(30, options);
  for (int epoch = 0; epoch < ae_epochs; ++epoch) {
    MiniBatcher batcher(train.num_samples(), options.batch_size, rng);
    while (batcher.Next(&idx)) {
      const ag::StepScope step_scope;
      const std::vector<Var> x = SequenceBatch(train.samples(), idx);
      const Var ae_loss = SequenceMse(nets_->Recover(nets_->Embed(x)), x);
      TSG_RETURN_IF_ERROR(
          GuardedStep(ae_opt, ae_loss, 5.0, {"TimeGAN", "autoencoder", epoch}));
    }
  }

  // ---- Phase 2: supervised dynamics in latent space. ----
  const int sup_epochs = ResolveEpochs(30, options);
  for (int epoch = 0; epoch < sup_epochs; ++epoch) {
    MiniBatcher batcher(train.num_samples(), options.batch_size, rng);
    while (batcher.Next(&idx)) {
      const ag::StepScope step_scope;
      const std::vector<Var> x = SequenceBatch(train.samples(), idx);
      std::vector<Var> h = nets_->Embed(x);
      for (Var& v : h) v = Detach(v);  // Supervisor-only phase.
      const Var sup_loss = SupervisedLoss(*nets_, h);
      TSG_RETURN_IF_ERROR(
          GuardedStep(sup_opt, sup_loss, 5.0, {"TimeGAN", "supervised", epoch}));
    }
  }

  // ---- Phase 3: joint adversarial training. ----
  const int joint_epochs = ResolveEpochs(40, options);
  for (int epoch = 0; epoch < joint_epochs; ++epoch) {
    MiniBatcher batcher(train.num_samples(), options.batch_size, rng);
    while (batcher.Next(&idx)) {
      // `x`, `ones`, `zeros` feed all three updates, so the scope spans the
      // whole iteration rather than each GuardedStep.
      const ag::StepScope step_scope;
      const int64_t batch = static_cast<int64_t>(idx.size());
      const std::vector<Var> x = SequenceBatch(train.samples(), idx);
      const Var ones = Var::Constant(Matrix::Constant(batch, 1, 1.0));
      const Var zeros = Var::Constant(Matrix::Constant(batch, 1, 0.0));

      // Generator (+ supervisor) step.
      {
        const std::vector<Var> noise = NoiseSequence(seq_len_, batch, noise_dim_, rng);
        const std::vector<Var> h_hat = nets_->GenerateLatent(noise);
        const std::vector<Var> h = nets_->Embed(x);
        std::vector<Var> h_detached;
        for (const Var& v : h) h_detached.push_back(Detach(v));
        const Var adv = BceWithLogits(nets_->Discriminate(h_hat), ones);
        const Var sup = SupervisedLoss(*nets_, h_detached);
        const Var moments = MomentLoss(nets_->Recover(h_hat), x);
        const Var g_loss = adv + ScalarMul(Sqrt(ScalarAdd(sup, 1e-8)), 10.0) +
                           ScalarMul(moments, 1.0);
        TSG_RETURN_IF_ERROR(
            GuardedStep(gen_opt, g_loss, 5.0, {"TimeGAN", "joint-gen", epoch}));
      }

      // Embedder/recovery maintenance step (reconstruction + light supervised).
      {
        const std::vector<Var> x2 = SequenceBatch(train.samples(), idx);
        const std::vector<Var> h = nets_->Embed(x2);
        const Var recon = SequenceMse(nets_->Recover(h), x2);
        const Var sup = SupervisedLoss(*nets_, h);
        const Var ae_loss = ScalarMul(recon, 10.0) + ScalarMul(sup, 0.1);
        TSG_RETURN_IF_ERROR(
            GuardedStep(ae_joint_opt, ae_loss, 5.0, {"TimeGAN", "joint-ae", epoch}));
      }

      // Discriminator step.
      {
        const std::vector<Var> noise = NoiseSequence(seq_len_, batch, noise_dim_, rng);
        std::vector<Var> h_hat = nets_->GenerateLatent(noise);
        for (Var& v : h_hat) v = Detach(v);
        std::vector<Var> h = nets_->Embed(x);
        for (Var& v : h) v = Detach(v);
        const Var d_loss = BceWithLogits(nets_->Discriminate(h), ones) +
                           BceWithLogits(nets_->Discriminate(h_hat), zeros);
        TSG_RETURN_IF_ERROR(
            GuardedStep(disc_opt, d_loss, 5.0, {"TimeGAN", "joint-disc", epoch}));
      }
    }
  }
  return Status::Ok();
}

std::vector<Matrix> TimeGan::Generate(int64_t count, Rng& rng) const {
  TSG_CHECK(built()) << "Fit must be called before Generate";
  const std::vector<Var> noise = NoiseSequence(seq_len_, count, noise_dim_, rng);
  const std::vector<Var> h_hat = nets_->GenerateLatent(noise);
  return StepsToSamples(nets_->Recover(h_hat));
}

Status TimeGan::Build(const Dims& dims, Rng& rng) {
  TSG_RETURN_IF_ERROR(ReadDims(dims, {{"seq_len", &seq_len_},
                                      {"num_features", &num_features_},
                                      {"noise_dim", &noise_dim_},
                                      {"hidden", &hidden_}}));
  if (seq_len_ < 2) {
    return Status::InvalidArgument("TimeGAN requires sequences of length >= 2");
  }
  nets_ = std::make_unique<Nets>(num_features_, hidden_, noise_dim_, rng);
  return Status::Ok();
}

std::vector<Matrix*> TimeGan::State() const {
  return ValuesOf(nn::CollectParameters(
      {&nets_->embedder, &nets_->recovery_head, &nets_->generator, &nets_->gen_head,
       &nets_->supervisor, &nets_->sup_head, &nets_->discriminator,
       &nets_->disc_head}));
}

uint64_t TimeGan::HyperparameterDigest() const {
  return HyperDigest(
      "TimeGAN v1: noise=clamp(N,4,16) hidden=clamp(2N,12,36) gru-depth=2/2/1/1 "
      "adam=2e-3/1e-3 epochs=30+30+40 clip=5");
}

}  // namespace tsg::methods
