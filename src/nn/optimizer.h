#ifndef TSG_NN_OPTIMIZER_H_
#define TSG_NN_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "ag/variable.h"
#include "linalg/matrix.h"

namespace tsg::nn {

using ag::Var;

/// Base optimizer over a fixed parameter list. Training loops update it through
/// GuardedStep (nn/train.h): ZeroGrad, ag::Backward, ClipGradNorm, Step.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Var> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update from the accumulated gradients.
  virtual void Step() = 0;

  /// Clears all parameter gradients.
  void ZeroGrad();

  /// Rescales gradients so their global L2 norm is at most `max_norm`; returns the
  /// pre-clip norm. Standard stabilizer for recurrent nets.
  double ClipGradNorm(double max_norm);

  const std::vector<Var>& params() const { return params_; }

 protected:
  std::vector<Var> params_;
};

/// Stochastic gradient descent with optional classical momentum.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Var> params, double lr, double momentum = 0.0);
  void Step() override;

  void set_lr(double lr) { lr_ = lr; }

 private:
  double lr_;
  double momentum_;
  std::vector<linalg::Matrix> velocity_;
};

/// Adam (Kingma & Ba) with bias correction — the default optimizer for every TSG
/// method in this benchmark, matching common practice in the surveyed papers.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Var> params, double lr, double beta1 = 0.9, double beta2 = 0.999,
       double eps = 1e-8);
  void Step() override;

  void set_lr(double lr) { lr_ = lr; }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  int64_t t_ = 0;
  std::vector<linalg::Matrix> m_;
  std::vector<linalg::Matrix> v_;
};

/// Clamps every element of every parameter to [-limit, limit]. Implements the WGAN
/// weight-clipping critic constraint used by RTSGAN's latent-space critic.
void ClipParameterValues(const std::vector<Var>& params, double limit);

}  // namespace tsg::nn

#endif  // TSG_NN_OPTIMIZER_H_
