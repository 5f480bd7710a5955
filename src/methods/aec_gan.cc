#include "methods/aec_gan.h"

#include <algorithm>

#include "ag/ops.h"
#include "methods/common.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"

namespace tsg::methods {

using ag::BceWithLogits;
using ag::ColMeanVar;
using ag::ConcatCols;
using ag::Detach;
using ag::Mean;
using ag::MseLoss;
using ag::Randn;
using ag::ScalarMul;
using ag::SliceCols;
using ag::Square;

int64_t AecGan::ContextLengthFor(int64_t l) {
  // Paper parameter settings: l_c = 4 (l=16), 25 (l=125), 28 (l=128), 56 (l=168),
  // 64 (l=192). The printed value for l=24 ("85") exceeds l and must be a typo; 8
  // keeps the same ~1/3 ratio. Other lengths fall back to l/3.
  switch (l) {
    case 14:
    case 16:
      return 4;
    case 24:
      return 8;
    case 125:
      return 25;
    case 128:
      return 28;
    case 168:
      return 56;
    case 192:
      return 64;
    default:
      return std::max<int64_t>(2, l / 3);
  }
}

struct AecGan::Nets {
  Nets(int64_t n, int64_t hidden, int64_t noise_dim, int64_t context_len,
       int64_t gen_len, Rng& rng)
      : context_gen({noise_dim, 64, context_len * n}, rng, nn::Activation::kRelu,
                    nn::Activation::kSigmoid),
        ar_cell(n + noise_dim, hidden, rng),
        ar_head(hidden, n, rng, nn::Activation::kSigmoid),
        corrector({gen_len * n, 64, gen_len * n}, rng, nn::Activation::kTanh),
        disc(n, hidden, 1, rng),
        disc_head(hidden, 1, rng) {}

  /// Unrolls the autoregressive generator from `context` steps (each (batch x N)),
  /// producing `gen_len` further steps refined by the error-correction module.
  /// Every step draws a fresh (batch x noise_dim) noise input from `rng`.
  std::vector<Var> GenerateTail(const std::vector<Var>& context, int64_t gen_len,
                                int64_t noise_dim, Rng& rng) const {
    const int64_t batch = context[0].rows();
    const int64_t n = context[0].cols();
    // Warm the cell on the context, then feed generated steps back as inputs.
    Var state = ar_cell.InitialState(batch);
    for (const Var& c : context) {
      state = ar_cell.Forward(ConcatCols(c, Randn(batch, noise_dim, rng)), state);
    }
    std::vector<Var> raw;
    raw.push_back(ar_head.Forward(state));
    for (int64_t t = 1; t < gen_len; ++t) {
      const Var input = ConcatCols(raw.back(), Randn(batch, noise_dim, rng));
      state = ar_cell.Forward(input, state);
      raw.push_back(ar_head.Forward(state));
    }
    // Error correction: residual refinement of the flattened chunk.
    Var flat = raw[0];
    for (int64_t t = 1; t < gen_len; ++t) {
      flat = ConcatCols(flat, raw[static_cast<size_t>(t)]);
    }
    const Var corrected = flat + ScalarMul(corrector.Forward(flat), 0.1);
    std::vector<Var> out;
    out.reserve(static_cast<size_t>(gen_len));
    for (int64_t t = 0; t < gen_len; ++t) {
      out.push_back(SliceCols(corrected, t * n, n));
    }
    return out;
  }

  Var Discriminate(const std::vector<Var>& steps) const {
    std::vector<Var> finals;
    disc.Forward(steps, &finals);
    return disc_head.Forward(finals.back());
  }

  nn::Mlp context_gen;
  nn::GruCell ar_cell;
  nn::Dense ar_head;
  nn::Mlp corrector;
  nn::GruStack disc;
  nn::Dense disc_head;
};

AecGan::AecGan() = default;

AecGan::~AecGan() = default;

Status AecGan::Fit(const core::Dataset& train, const core::FitOptions& options) {
  if (train.empty()) return Status::InvalidArgument("AEC-GAN: empty training set");
  const int64_t l = train.seq_len();
  const int64_t n = train.num_features();
  Rng rng(options.seed ^ 0xAEC6);
  TSG_RETURN_IF_ERROR(BuildFrom({{"seq_len", l},
                                 {"num_features", n},
                                 {"context_len", std::min(ContextLengthFor(l), l - 1)},
                                 {"noise_dim", 8},
                                 {"hidden", std::clamp<int64_t>(2 * n, 16, 36)}},
                                rng));

  nn::Adam g_opt(nn::CollectParameters({&nets_->context_gen, &nets_->ar_cell,
                                        &nets_->ar_head, &nets_->corrector}),
                 1e-3);
  nn::Adam d_opt(nn::CollectParameters({&nets_->disc, &nets_->disc_head}), 1e-3);

  const int epochs = ResolveEpochs(40, options);
  std::vector<int64_t> idx;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    MiniBatcher batcher(train.num_samples(), options.batch_size, rng);
    while (batcher.Next(&idx)) {
      // `tail`/`fake_window` feed all three updates; one scope per iteration.
      const ag::StepScope step_scope;
      const int64_t batch = static_cast<int64_t>(idx.size());
      const Var ones = Var::Constant(Matrix::Constant(batch, 1, 1.0));
      const Var zeros = Var::Constant(Matrix::Constant(batch, 1, 0.0));
      const std::vector<Var> real = SequenceBatch(train.samples(), idx);

      // Context: real prefix perturbed slightly (adversarial-augmentation stand-in).
      std::vector<Var> context;
      for (int64_t t = 0; t < context_len_; ++t) {
        context.push_back(real[static_cast<size_t>(t)] +
                          Randn(batch, num_features_, rng, 0.01));
      }
      const std::vector<Var> tail =
          nets_->GenerateTail(context, seq_len_ - context_len_, noise_dim_, rng);
      std::vector<Var> fake_window = context;
      fake_window.insert(fake_window.end(), tail.begin(), tail.end());

      // Discriminator.
      std::vector<Var> fake_detached;
      for (const Var& f : fake_window) fake_detached.push_back(Detach(f));
      const Var d_loss = BceWithLogits(nets_->Discriminate(real), ones) +
                         BceWithLogits(nets_->Discriminate(fake_detached), zeros);
      TSG_RETURN_IF_ERROR(GuardedStep(d_opt, d_loss, 5.0, {"AEC-GAN", "disc", epoch}));

      // Generator: adversarial + teacher-forced reconstruction of the tail (keeps
      // the autoregression anchored, mirroring AEC-GAN's correction objective).
      Var recon = MseLoss(tail[0], real[static_cast<size_t>(context_len_)]);
      for (int64_t t = 1; t < seq_len_ - context_len_; ++t) {
        recon = recon + MseLoss(tail[static_cast<size_t>(t)],
                                real[static_cast<size_t>(context_len_ + t)]);
      }
      recon = ScalarMul(recon, 1.0 / static_cast<double>(seq_len_ - context_len_));
      const Var g_loss = BceWithLogits(nets_->Discriminate(fake_window), ones) +
                         ScalarMul(recon, 5.0);
      TSG_RETURN_IF_ERROR(GuardedStep(g_opt, g_loss, 5.0, {"AEC-GAN", "gen", epoch}));

      // Unconditional context generator learns the prefix distribution.
      Var ctx_flat = Detach(real[0]);
      for (int64_t t = 1; t < context_len_; ++t) {
        ctx_flat = ConcatCols(ctx_flat, Detach(real[static_cast<size_t>(t)]));
      }
      const Var ctx_pred = nets_->context_gen.Forward(Randn(batch, noise_dim_, rng));
      // Moment matching on the prefix: mean and spread per column.
      const Var mean_loss = Mean(Square(ColMeanVar(ctx_pred) - ColMeanVar(ctx_flat)));
      const Var mse_anchor = MseLoss(ctx_pred, ctx_flat);
      const Var ctx_loss = mean_loss + ScalarMul(mse_anchor, 0.2);
      TSG_RETURN_IF_ERROR(
          GuardedStep(g_opt, ctx_loss, 5.0, {"AEC-GAN", "context-gen", epoch}));
    }
  }
  return Status::Ok();
}

std::vector<Matrix> AecGan::Generate(int64_t count, Rng& rng) const {
  TSG_CHECK(built()) << "Fit must be called before Generate";
  // Synthesize a context with the context generator, then roll out the tail.
  const Var ctx_flat = nets_->context_gen.Forward(Randn(count, noise_dim_, rng));
  std::vector<Var> context;
  for (int64_t t = 0; t < context_len_; ++t) {
    context.push_back(SliceCols(ctx_flat, t * num_features_, num_features_));
  }
  const std::vector<Var> tail =
      nets_->GenerateTail(context, seq_len_ - context_len_, noise_dim_, rng);
  std::vector<Var> window = context;
  window.insert(window.end(), tail.begin(), tail.end());
  return StepsToSamples(window);
}

Status AecGan::Build(const Dims& dims, Rng& rng) {
  TSG_RETURN_IF_ERROR(ReadDims(dims, {{"seq_len", &seq_len_},
                                      {"num_features", &num_features_},
                                      {"context_len", &context_len_},
                                      {"noise_dim", &noise_dim_},
                                      {"hidden", &hidden_}}));
  if (context_len_ >= seq_len_) {
    return Status::InvalidArgument("AEC-GAN: context_len must be below seq_len");
  }
  nets_ = std::make_unique<Nets>(num_features_, hidden_, noise_dim_, context_len_,
                                 seq_len_ - context_len_, rng);
  return Status::Ok();
}

std::vector<Matrix*> AecGan::State() const {
  return ValuesOf(nn::CollectParameters({&nets_->context_gen, &nets_->ar_cell,
                                         &nets_->ar_head, &nets_->corrector,
                                         &nets_->disc, &nets_->disc_head}));
}

uint64_t AecGan::HyperparameterDigest() const {
  return HyperDigest(
      "AEC-GAN v1: noise=8 hidden=clamp(2N,16,36) ctx=paper-table corrector=64 "
      "epochs=40 clip=5");
}

}  // namespace tsg::methods
