#include "embed/embedder.h"

#include <algorithm>
#include <string>

#include "ag/ops.h"
#include "ag/tape.h"
#include "base/thread_pool.h"
#include "nn/optimizer.h"
#include "nn/train.h"

namespace tsg::embed {

using ag::Var;

struct SequenceEmbedder::Impl {
  Impl(int64_t num_features, const Options& opts, Rng& rng)
      : encoder(num_features, opts.hidden_size, 1, rng),
        to_embed(opts.hidden_size, opts.embed_dim, rng, nn::Activation::kTanh),
        from_embed(opts.embed_dim, opts.hidden_size, rng, nn::Activation::kTanh),
        decoder(opts.hidden_size, opts.hidden_size, 1, rng),
        head(opts.hidden_size, num_features, rng) {}

  /// Encodes a batch of equal-length samples into (batch x embed_dim).
  Var Encode(const std::vector<Var>& steps) const {
    std::vector<Var> finals;
    encoder.Forward(steps, &finals);
    return to_embed.Forward(finals.back());
  }

  /// Decodes embeddings back to a sequence of `len` steps by feeding the expanded
  /// embedding as the input at every step.
  std::vector<Var> Decode(const Var& embedding, int64_t len) const {
    const Var ctx = from_embed.Forward(embedding);
    // Positional rows give the decoder step identity; without them a constant-input
    // GRU converges to a fixed point and reconstructions collapse to the mean.
    const linalg::Matrix pos = nn::SinusoidalPositions(len, ctx.cols());
    std::vector<Var> inputs;
    inputs.reserve(static_cast<size_t>(len));
    for (int64_t t = 0; t < len; ++t) {
      inputs.push_back(ag::AddRowVec(ctx, Var::Constant(pos.Row(t))));
    }
    std::vector<Var> hidden = decoder.Forward(inputs);
    std::vector<Var> outputs;
    outputs.reserve(hidden.size());
    for (const Var& h : hidden) outputs.push_back(head.Forward(h));
    return outputs;
  }

  std::vector<Var> Parameters() const {
    return nn::CollectParameters({&encoder, &to_embed, &from_embed, &decoder, &head});
  }

  nn::GruStack encoder;
  nn::Dense to_embed;
  nn::Dense from_embed;
  nn::GruStack decoder;
  nn::Dense head;
};

SequenceEmbedder::SequenceEmbedder(int64_t num_features, const Options& options,
                                   uint64_t seed)
    : options_(options), num_features_(num_features), rng_(seed) {
  impl_ = std::make_unique<Impl>(num_features, options_, rng_);
}

SequenceEmbedder::~SequenceEmbedder() = default;

StatusOr<double> SequenceEmbedder::Fit(const std::vector<Matrix>& samples) {
  if (samples.empty()) {
    return Status::InvalidArgument("embedder fit needs at least one sample");
  }
  const int64_t l = samples[0].rows();
  for (size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].rows() != l || samples[i].cols() != num_features_) {
      return Status::InvalidArgument(
          "embedder sample " + std::to_string(i) + " is " +
          std::to_string(samples[i].rows()) + "x" +
          std::to_string(samples[i].cols()) + ", expected " + std::to_string(l) +
          "x" + std::to_string(num_features_));
    }
  }

  nn::Adam opt(impl_->Parameters(), options_.learning_rate);
  double last_epoch_loss = 0.0;
  std::vector<int64_t> idx;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    nn::MiniBatcher batcher(static_cast<int64_t>(samples.size()),
                            options_.batch_size, rng_);
    double epoch_loss = 0.0;
    int64_t batches = 0;
    while (batcher.Next(&idx)) {
      const ag::StepScope step_scope;
      const std::vector<Var> steps = nn::SequenceBatch(samples, idx);
      const Var embedding = impl_->Encode(steps);
      const std::vector<Var> recon = impl_->Decode(embedding, l);
      Var loss = ag::MseLoss(recon[0], steps[0]);
      for (int64_t t = 1; t < l; ++t) {
        loss = loss + ag::MseLoss(recon[static_cast<size_t>(t)],
                                  steps[static_cast<size_t>(t)]);
      }
      loss = ag::ScalarMul(loss, 1.0 / static_cast<double>(l));
      TSG_RETURN_IF_ERROR(nn::GuardedStep(opt, loss, options_.grad_clip,
                                          {"C-FID", "embedder", epoch}));
      epoch_loss += loss.value()(0, 0);
      ++batches;
    }
    last_epoch_loss = epoch_loss / static_cast<double>(std::max<int64_t>(batches, 1));
  }
  return last_epoch_loss;
}

Matrix SequenceEmbedder::Embed(const std::vector<Matrix>& samples) const {
  TSG_CHECK(!samples.empty());
  const int64_t n_samples = static_cast<int64_t>(samples.size());
  Matrix out(n_samples, options_.embed_dim);
  // Batches are embedded concurrently: the forward pass only reads the fitted
  // weights (it allocates fresh tape nodes per call), and each batch writes a
  // disjoint row range of `out`, so no batch observes another's work.
  constexpr int64_t kBatch = 64;
  const int64_t num_batches = (n_samples + kBatch - 1) / kBatch;
  base::ParallelFor(0, num_batches, 1, [&](int64_t batch0, int64_t batch1) {
    for (int64_t batch = batch0; batch < batch1; ++batch) {
      const int64_t start = batch * kBatch;
      const int64_t end = std::min(start + kBatch, n_samples);
      std::vector<int64_t> idx(static_cast<size_t>(end - start));
      for (int64_t i = start; i < end; ++i) idx[static_cast<size_t>(i - start)] = i;
      const Var embedding = impl_->Encode(nn::SequenceBatch(samples, idx));
      out.SetBlock(start, 0, embedding.value());
    }
  });
  return out;
}

}  // namespace tsg::embed
