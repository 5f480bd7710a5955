#ifndef TSG_NN_TRAIN_H_
#define TSG_NN_TRAIN_H_

#include <cstdint>
#include <initializer_list>
#include <type_traits>
#include <utility>
#include <vector>

#include "ag/tape.h"
#include "ag/variable.h"
#include "base/check.h"
#include "base/rng.h"
#include "base/status.h"
#include "linalg/matrix.h"
#include "nn/optimizer.h"

namespace tsg::nn {

/// Identifies one optimizer update for error context: which training loop (a
/// method, or a post-hoc measure model such as "DS"), which phase, and the
/// epoch (or step) index within that phase. Both names must be string
/// literals: the per-thread telemetry cache keeps the pointers.
struct StepContext {
  const char* method;
  const char* phase;
  int epoch;
};

/// One guarded optimizer update: checks the loss is finite, backpropagates,
/// clips the gradient (checking the pre-clip norm is finite), and steps. A
/// non-finite loss or gradient returns kNumericalError carrying the method,
/// phase, epoch, and offending value, so a diverged training run surfaces as a
/// recoverable per-cell failure instead of NaN-poisoned scores or an abort.
/// `clip_norm <= 0` skips rescaling but still checks the gradient norm (for
/// WGAN-style loops that clip parameter values instead of gradients). Every
/// update records the "train.<method>.<phase>.*" telemetry.
Status GuardedStep(std::initializer_list<Optimizer*> opts, const ag::Var& loss,
                   double clip_norm, const StepContext& ctx);
Status GuardedStep(Optimizer& opt, const ag::Var& loss, double clip_norm,
                   const StepContext& ctx);

/// The selected samples as `l` step batches: batch t is a (batch x N) constant
/// holding row t of every sample in `idx`, arena-backed inside a StepScope.
/// `samples` lists (l x N) matrices by value or by address; DS interleaves its
/// real and generated series by address, without copying them. `l` and N come
/// from the first selected sample, and every selected sample must share them.
template <typename Samples>
std::vector<ag::Var> SequenceBatch(const Samples& samples,
                                   const std::vector<int64_t>& idx) {
  auto sample = [&](size_t b) -> const linalg::Matrix& {
    if constexpr (std::is_pointer_v<typename Samples::value_type>) {
      return *samples[static_cast<size_t>(idx[b])];
    } else {
      return samples[static_cast<size_t>(idx[b])];
    }
  };
  TSG_CHECK(!idx.empty());
  const int64_t l = sample(0).rows();
  const int64_t n = sample(0).cols();
  std::vector<ag::Var> steps;
  steps.reserve(static_cast<size_t>(l));
  for (int64_t t = 0; t < l; ++t) {
    linalg::Matrix step = ag::ScratchUninit(static_cast<int64_t>(idx.size()), n);
    for (size_t b = 0; b < idx.size(); ++b) {
      const linalg::Matrix& s = sample(b);
      for (int64_t j = 0; j < n; ++j) step(static_cast<int64_t>(b), j) = s(t, j);
    }
    steps.push_back(ag::Var::Constant(std::move(step)));
  }
  return steps;
}

/// Yields shuffled minibatch index lists over [0, count): one permutation drawn
/// from `rng` at construction, cut into `batch_size` slices.
class MiniBatcher {
 public:
  MiniBatcher(int64_t count, int64_t batch_size, Rng& rng);

  /// Fills `idx` with the next batch; returns false when the epoch is exhausted.
  bool Next(std::vector<int64_t>* idx);

 private:
  std::vector<int64_t> perm_;
  int64_t batch_size_;
  int64_t pos_ = 0;
};

}  // namespace tsg::nn

#endif  // TSG_NN_TRAIN_H_
