#ifndef TSG_EMBED_EMBEDDER_H_
#define TSG_EMBED_EMBEDDER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "linalg/matrix.h"
#include "nn/dense.h"
#include "nn/rnn.h"

namespace tsg::embed {

using linalg::Matrix;

/// Substitute for the ts2vec backbone the paper uses inside Contextual-FID (M3): a
/// recurrent sequence autoencoder trained on the real data split. The encoder's final
/// hidden state, projected to `embed_dim`, is the context embedding in which the
/// Frechet distance between real and generated sets is computed. Like ts2vec, the
/// embedding is (a) learned from the real data only, (b) fixed before evaluating any
/// generator, and (c) sensitive to local temporal context through the recurrence.
class SequenceEmbedder {
 public:
  struct Options {
    int64_t hidden_size = 32;
    int64_t embed_dim = 16;
    int epochs = 25;
    int64_t batch_size = 64;
    double learning_rate = 5e-3;
    double grad_clip = 5.0;
  };

  /// `num_features` is N, the per-step dimensionality of the series to embed.
  SequenceEmbedder(int64_t num_features, const Options& options, uint64_t seed);
  ~SequenceEmbedder();
  SequenceEmbedder(const SequenceEmbedder&) = delete;
  SequenceEmbedder& operator=(const SequenceEmbedder&) = delete;

  /// Trains the autoencoder on `samples`, which must all share one (l x N)
  /// shape, N = num_features. Returns the final epoch's mean reconstruction
  /// loss; InvalidArgument for an empty set or mixed shapes, and
  /// kNumericalError naming C-FID, the embedder phase and the epoch when the
  /// training diverges.
  StatusOr<double> Fit(const std::vector<Matrix>& samples);

  /// Embeds each sample into a row of the returned (n x embed_dim) matrix.
  Matrix Embed(const std::vector<Matrix>& samples) const;

  int64_t embed_dim() const { return options_.embed_dim; }

 private:
  struct Impl;
  Options options_;
  int64_t num_features_;
  std::unique_ptr<Impl> impl_;
  Rng rng_;
};

}  // namespace tsg::embed

#endif  // TSG_EMBED_EMBEDDER_H_
