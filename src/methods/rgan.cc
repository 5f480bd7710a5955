#include "methods/rgan.h"

#include <algorithm>

#include "ag/ops.h"
#include "methods/common.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"

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

struct Rgan::Nets {
  Nets(int64_t noise_dim, int64_t n, int64_t hidden, Rng& rng)
      : gen_rnn(noise_dim, hidden, 1, rng),
        gen_out(hidden, n, rng, nn::Activation::kSigmoid),
        disc_rnn(n, hidden, 1, rng),
        disc_out(hidden, 1, rng) {}

  /// Noise sequence -> per-step outputs in [0, 1].
  std::vector<Var> Generate(const std::vector<Var>& noise) const {
    std::vector<Var> hidden = gen_rnn.Forward(noise);
    std::vector<Var> out;
    out.reserve(hidden.size());
    for (const Var& h : hidden) out.push_back(gen_out.Forward(h));
    return out;
  }

  /// Per-step discriminator logits averaged into one (batch x 1) score.
  Var Discriminate(const std::vector<Var>& series) const {
    const std::vector<Var> hidden = disc_rnn.Forward(series);
    Var logits = disc_out.Forward(hidden[0]);
    for (size_t t = 1; t < hidden.size(); ++t) {
      logits = logits + disc_out.Forward(hidden[t]);
    }
    return ScalarMul(logits, 1.0 / static_cast<double>(hidden.size()));
  }

  nn::GruStack gen_rnn;
  nn::Dense gen_out;
  nn::GruStack disc_rnn;
  nn::Dense disc_out;
};

Rgan::Rgan() = default;

Rgan::~Rgan() = default;

Status Rgan::Fit(const core::Dataset& train, const core::FitOptions& options) {
  if (train.empty()) return Status::InvalidArgument("RGAN: empty training set");
  seq_len_ = train.seq_len();
  num_features_ = train.num_features();
  noise_dim_ = std::clamp<int64_t>(num_features_, 4, 16);
  hidden_ = std::clamp<int64_t>(4 * num_features_, 8, 48);

  Rng rng(options.seed ^ 0x46A1);
  nets_ = std::make_unique<Nets>(noise_dim_, num_features_, hidden_, rng);
  nn::Adam g_opt(nn::CollectParameters({&nets_->gen_rnn, &nets_->gen_out}), 1e-3);
  nn::Adam d_opt(nn::CollectParameters({&nets_->disc_rnn, &nets_->disc_out}), 1e-3);

  const int epochs = ResolveEpochs(60, options);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    MiniBatcher batcher(train.num_samples(), options.batch_size, rng);
    std::vector<int64_t> idx;
    while (batcher.Next(&idx)) {
      // One step scope per batch: both GuardedSteps below share the generator
      // graph, so the arena resets only after the generator update.
      const ag::StepScope step_scope;
      const int64_t batch = static_cast<int64_t>(idx.size());
      const std::vector<Var> real = SequenceBatch(train.samples(), idx);
      const std::vector<Var> noise = NoiseSequence(seq_len_, batch, noise_dim_, rng);
      const std::vector<Var> fake = nets_->Generate(noise);

      // Discriminator step on real vs detached fake.
      std::vector<Var> fake_detached;
      fake_detached.reserve(fake.size());
      for (const Var& f : fake) fake_detached.push_back(Detach(f));
      const Var d_loss =
          BceWithLogits(nets_->Discriminate(real),
                        Var::Constant(Matrix::Constant(batch, 1, 1.0))) +
          BceWithLogits(nets_->Discriminate(fake_detached),
                        Var::Constant(Matrix::Constant(batch, 1, 0.0)));
      TSG_RETURN_IF_ERROR(GuardedStep(d_opt, d_loss, 5.0, {"RGAN", "disc", epoch}));

      // Generator step: fool the discriminator.
      const Var g_loss = BceWithLogits(
          nets_->Discriminate(fake), Var::Constant(Matrix::Constant(batch, 1, 1.0)));
      TSG_RETURN_IF_ERROR(GuardedStep(g_opt, g_loss, 5.0, {"RGAN", "gen", epoch}));
    }
  }
  return Status::Ok();
}

std::vector<Matrix> Rgan::Generate(int64_t count, Rng& rng) const {
  TSG_CHECK(nets_ != nullptr) << "Fit must be called before Generate";
  const std::vector<Var> noise = NoiseSequence(seq_len_, count, noise_dim_, rng);
  return StepsToSamples(nets_->Generate(noise));
}

StatusOr<core::MethodSnapshot> Rgan::Snapshot() const {
  if (nets_ == nullptr) {
    return Status::FailedPrecondition("RGAN: Fit must succeed before Snapshot");
  }
  core::MethodSnapshot snap;
  PutConfig(&snap, "seq_len", seq_len_);
  PutConfig(&snap, "num_features", num_features_);
  PutConfig(&snap, "noise_dim", noise_dim_);
  PutConfig(&snap, "hidden", hidden_);
  AppendParams(&snap, nn::CollectParameters({&nets_->gen_rnn, &nets_->gen_out,
                                             &nets_->disc_rnn, &nets_->disc_out}));
  return snap;
}

Status Rgan::Restore(const core::MethodSnapshot& snapshot) {
  int64_t seq_len = 0, n = 0, noise_dim = 0, hidden = 0;
  TSG_RETURN_IF_ERROR(GetConfig(snapshot, "RGAN", "seq_len", &seq_len));
  TSG_RETURN_IF_ERROR(GetConfig(snapshot, "RGAN", "num_features", &n));
  TSG_RETURN_IF_ERROR(GetConfig(snapshot, "RGAN", "noise_dim", &noise_dim));
  TSG_RETURN_IF_ERROR(GetConfig(snapshot, "RGAN", "hidden", &hidden));
  if (seq_len <= 0 || n <= 0 || noise_dim <= 0 || hidden <= 0) {
    return Status::InvalidArgument("RGAN: non-positive dimension in snapshot");
  }
  // Placeholder init; every parameter is overwritten from the snapshot below.
  Rng rng(0);
  auto nets = std::make_unique<Nets>(noise_dim, n, hidden, rng);
  const std::vector<Var> params = nn::CollectParameters(
      {&nets->gen_rnn, &nets->gen_out, &nets->disc_rnn, &nets->disc_out});
  TSG_RETURN_IF_ERROR(CheckParamCount(snapshot, "RGAN", params.size()));
  TSG_RETURN_IF_ERROR(AssignParams(snapshot, "RGAN", 0, params));
  nets_ = std::move(nets);
  seq_len_ = seq_len;
  num_features_ = n;
  noise_dim_ = noise_dim;
  hidden_ = hidden;
  return Status::Ok();
}

uint64_t Rgan::HyperparameterDigest() const {
  return HyperDigest(
      "RGAN v1: noise=clamp(N,4,16) hidden=clamp(4N,8,48) gru-depth=1 adam=1e-3 "
      "epochs=60 clip=5");
}

}  // namespace tsg::methods
