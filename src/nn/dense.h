#ifndef TSG_NN_DENSE_H_
#define TSG_NN_DENSE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/module.h"

namespace tsg::nn {

/// Element-wise nonlinearity selector shared by Dense and MLP.
enum class Activation { kNone, kRelu, kLeakyRelu, kSigmoid, kTanh, kSoftplus };

/// Applies the named activation to `x`.
Var Activate(const Var& x, Activation activation);

/// Maps the layer-level Activation tag onto the kernel epilogue tag.
inline ag::Act ToKernelAct(Activation activation) {
  switch (activation) {
    case Activation::kNone:
      return ag::Act::kNone;
    case Activation::kRelu:
      return ag::Act::kRelu;
    case Activation::kLeakyRelu:
      return ag::Act::kLeakyRelu;
    case Activation::kSigmoid:
      return ag::Act::kSigmoid;
    case Activation::kTanh:
      return ag::Act::kTanh;
    case Activation::kSoftplus:
      return ag::Act::kSoftplus;
  }
  TSG_CHECK(false) << "unknown activation";
  return ag::Act::kNone;
}

/// Fully connected layer: y = act(x * W + b) with x of shape (batch x in).
class Dense : public Module {
 public:
  Dense(int64_t in_features, int64_t out_features, Rng& rng,
        Activation activation = Activation::kNone)
      : weight_(GlorotParameter(in_features, out_features, rng)),
        bias_(ZeroBias(out_features)),
        activation_(activation) {}

  /// One tape node: GEMM + bias + activation fused in the kernel epilogue.
  Var Forward(const Var& x) const {
    return ag::LinearBiasAct(x, weight_, bias_, ToKernelAct(activation_));
  }

  std::vector<Var> Parameters() const override { return {weight_, bias_}; }

  int64_t in_features() const { return weight_.rows(); }
  int64_t out_features() const { return weight_.cols(); }

 private:
  Var weight_;
  Var bias_;
  Activation activation_;
};

/// Multi-layer perceptron: hidden layers share one activation, the output layer gets
/// its own (often kNone for logits / regression heads).
class Mlp : public Module {
 public:
  /// `sizes` = {in, h1, ..., out}; requires at least {in, out}.
  Mlp(const std::vector<int64_t>& sizes, Rng& rng,
      Activation hidden_activation = Activation::kRelu,
      Activation output_activation = Activation::kNone);

  Var Forward(const Var& x) const;

  std::vector<Var> Parameters() const override;

 private:
  std::vector<std::unique_ptr<Dense>> layers_;
};

}  // namespace tsg::nn

#endif  // TSG_NN_DENSE_H_
