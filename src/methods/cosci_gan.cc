#include "methods/cosci_gan.h"

#include <algorithm>

#include "ag/ops.h"
#include "methods/common.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"

namespace tsg::methods {

using ag::BceWithLogits;
using ag::ConcatCols;
using ag::Detach;
using ag::ScalarMul;
using ag::SliceCols;

namespace {
constexpr double kGamma = 5.0;     // Paper setting: central discriminator weight.
// Safety cap on channel-GAN pairs; all benchmark datasets (N <= 28) stay below it,
// so every channel gets its own generator/discriminator pair as in the paper.
constexpr int64_t kMaxChannels = 64;
}  // namespace

struct CosciGan::Nets {
  struct ChannelPair {
    ChannelPair(int64_t noise_dim, int64_t hidden, Rng& rng)
        : gen(noise_dim, hidden, 1, rng),
          gen_head(hidden, 1, rng, nn::Activation::kSigmoid),
          disc(1, hidden, 1, rng),
          disc_head(hidden, 1, rng) {}

    nn::GruStack gen;
    nn::Dense gen_head;
    nn::GruStack disc;
    nn::Dense disc_head;
  };

  Nets(int64_t channels, int64_t noise_dim, int64_t hidden, int64_t flat_dim,
       Rng& rng)
      : central({flat_dim, 64, 1}, rng, nn::Activation::kLeakyRelu) {
    const int64_t pair_count = std::min(channels, kMaxChannels);
    for (int64_t c = 0; c < pair_count; ++c) {
      pairs.push_back(std::make_unique<ChannelPair>(noise_dim, hidden, rng));
    }
  }

  ChannelPair& PairFor(int64_t channel) {
    return *pairs[static_cast<size_t>(channel % static_cast<int64_t>(pairs.size()))];
  }

  /// Shared noise -> per-channel series; returns per-step (batch x N) outputs.
  std::vector<Var> Generate(const std::vector<Var>& noise, int64_t channels) {
    std::vector<std::vector<Var>> per_channel;
    per_channel.reserve(static_cast<size_t>(channels));
    for (int64_t c = 0; c < channels; ++c) {
      ChannelPair& pair = PairFor(c);
      std::vector<Var> hidden = pair.gen.Forward(noise);
      std::vector<Var> series;
      series.reserve(hidden.size());
      for (const Var& h : hidden) series.push_back(pair.gen_head.Forward(h));
      per_channel.push_back(std::move(series));
    }
    // Stitch channels: per time step concat columns.
    std::vector<Var> steps;
    steps.reserve(per_channel[0].size());
    for (size_t t = 0; t < per_channel[0].size(); ++t) {
      Var step = per_channel[0][t];
      for (int64_t c = 1; c < channels; ++c) {
        step = ConcatCols(step, per_channel[static_cast<size_t>(c)][t]);
      }
      steps.push_back(step);
    }
    return steps;
  }

  /// Channel discriminator logit for one channel's series.
  Var DiscriminateChannel(int64_t channel, const std::vector<Var>& channel_steps) {
    ChannelPair& pair = PairFor(channel);
    std::vector<Var> finals;
    pair.disc.Forward(channel_steps, &finals);
    return pair.disc_head.Forward(finals.back());
  }

  /// Central discriminator logit over the flattened multivariate window.
  Var DiscriminateCentral(const std::vector<Var>& steps) {
    Var flat = steps[0];
    for (size_t t = 1; t < steps.size(); ++t) flat = ConcatCols(flat, steps[t]);
    return central.Forward(flat);
  }

  std::vector<std::unique_ptr<ChannelPair>> pairs;
  nn::Mlp central;
};

CosciGan::CosciGan() = default;

CosciGan::~CosciGan() = default;

Status CosciGan::Fit(const core::Dataset& train, const core::FitOptions& options) {
  if (train.empty()) return Status::InvalidArgument("COSCI-GAN: empty training set");
  Rng rng(options.seed ^ 0xC05C1);
  TSG_RETURN_IF_ERROR(BuildFrom({{"seq_len", train.seq_len()},
                                 {"num_features", train.num_features()},
                                 {"noise_dim", 8},
                                 {"hidden", 16}},
                                rng));

  std::vector<Var> gen_params, disc_params;
  for (auto& pair : nets_->pairs) {
    for (const Var& p : nn::CollectParameters({&pair->gen, &pair->gen_head})) {
      gen_params.push_back(p);
    }
    for (const Var& p : nn::CollectParameters({&pair->disc, &pair->disc_head})) {
      disc_params.push_back(p);
    }
  }
  std::vector<Var> central_params = nets_->central.Parameters();
  nn::Adam g_opt(gen_params, 1e-3);
  nn::Adam d_opt(disc_params, 1e-3);
  nn::Adam c_opt(central_params, 1e-3);

  auto channel_slice = [&](const std::vector<Var>& steps, int64_t c) {
    std::vector<Var> out;
    out.reserve(steps.size());
    for (const Var& s : steps) out.push_back(SliceCols(s, c, 1));
    return out;
  };

  const int epochs = ResolveEpochs(60, options);
  std::vector<int64_t> idx;
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
      const std::vector<Var> fake = nets_->Generate(noise, num_features_);
      std::vector<Var> fake_detached;
      for (const Var& f : fake) fake_detached.push_back(Detach(f));

      // Channel discriminators + central discriminator.
      Var d_loss = BceWithLogits(nets_->DiscriminateCentral(real), ones) +
                   BceWithLogits(nets_->DiscriminateCentral(fake_detached), zeros);
      for (int64_t c = 0; c < num_features_; ++c) {
        d_loss = d_loss +
                 BceWithLogits(nets_->DiscriminateChannel(c, channel_slice(real, c)),
                               ones) +
                 BceWithLogits(
                     nets_->DiscriminateChannel(c, channel_slice(fake_detached, c)),
                     zeros);
      }
      TSG_RETURN_IF_ERROR(GuardedStep({&d_opt, &c_opt}, d_loss, 5.0,
                                      {"COSCI-GAN", "disc", epoch}));

      // Generators: per-channel adversarial + gamma * central coordination.
      Var g_loss = ScalarMul(BceWithLogits(nets_->DiscriminateCentral(fake), ones),
                             kGamma);
      for (int64_t c = 0; c < num_features_; ++c) {
        g_loss = g_loss +
                 BceWithLogits(nets_->DiscriminateChannel(c, channel_slice(fake, c)),
                               ones);
      }
      TSG_RETURN_IF_ERROR(GuardedStep(g_opt, g_loss, 5.0, {"COSCI-GAN", "gen", epoch}));
    }
  }
  return Status::Ok();
}

std::vector<Matrix> CosciGan::Generate(int64_t count, Rng& rng) const {
  TSG_CHECK(built()) << "Fit must be called before Generate";
  const std::vector<Var> noise = NoiseSequence(seq_len_, count, noise_dim_, rng);
  return StepsToSamples(nets_->Generate(noise, num_features_));
}

Status CosciGan::Build(const Dims& dims, Rng& rng) {
  TSG_RETURN_IF_ERROR(ReadDims(dims, {{"seq_len", &seq_len_},
                                      {"num_features", &num_features_},
                                      {"noise_dim", &noise_dim_},
                                      {"hidden", &hidden_}}));
  nets_ = std::make_unique<Nets>(num_features_, noise_dim_, hidden_,
                                 seq_len_ * num_features_, rng);
  return Status::Ok();
}

/// Channel pairs in channel order, the central discriminator last.
std::vector<Matrix*> CosciGan::State() const {
  std::vector<Var> params;
  for (const auto& pair : nets_->pairs) {
    for (const Var& p : nn::CollectParameters(
             {&pair->gen, &pair->gen_head, &pair->disc, &pair->disc_head})) {
      params.push_back(p);
    }
  }
  for (const Var& p : nets_->central.Parameters()) params.push_back(p);
  return ValuesOf(params);
}

uint64_t CosciGan::HyperparameterDigest() const {
  return HyperDigest(
      "COSCI-GAN v1: noise=8 hidden=16 gamma=5 central=64 max-channels=64 "
      "gru-depth=1 clip=5");
}

}  // namespace tsg::methods
