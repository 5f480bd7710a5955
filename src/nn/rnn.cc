#include "nn/rnn.h"

namespace tsg::nn {

using ag::Mul;
using ag::Tanh;
using ag::Var;

GruCell::GruCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      wxr_(GlorotParameter(input_size, hidden_size, rng)),
      whr_(GlorotParameter(hidden_size, hidden_size, rng)),
      br_(ZeroBias(hidden_size)),
      wxz_(GlorotParameter(input_size, hidden_size, rng)),
      whz_(GlorotParameter(hidden_size, hidden_size, rng)),
      bz_(ZeroBias(hidden_size)),
      wxn_(GlorotParameter(input_size, hidden_size, rng)),
      whn_(GlorotParameter(hidden_size, hidden_size, rng)),
      bxn_(ZeroBias(hidden_size)),
      bhn_(ZeroBias(hidden_size)) {}

Var GruCell::Forward(const Var& x, const Var& h) const {
  TSG_CHECK_EQ(x.cols(), input_size_);
  TSG_CHECK_EQ(h.cols(), hidden_size_);
  // Each gate is a single tape node: GEMM x2 + bias + sigmoid fused.
  const Var r = ag::GateBiasAct(x, wxr_, h, whr_, br_, ag::Act::kSigmoid);
  const Var z = ag::GateBiasAct(x, wxz_, h, whz_, bz_, ag::Act::kSigmoid);
  const Var n = Tanh(ag::LinearBiasAct(x, wxn_, bxn_, ag::Act::kNone) +
                     Mul(r, ag::LinearBiasAct(h, whn_, bhn_, ag::Act::kNone)));
  return ag::GateBlend(z, h, n);  // z .* h + (1 - z) .* n
}

std::vector<Var> GruCell::Parameters() const {
  return {wxr_, whr_, br_, wxz_, whz_, bz_, wxn_, whn_, bxn_, bhn_};
}

LstmCell::LstmCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      wxi_(GlorotParameter(input_size, hidden_size, rng)),
      whi_(GlorotParameter(hidden_size, hidden_size, rng)),
      bi_(ZeroBias(hidden_size)),
      wxf_(GlorotParameter(input_size, hidden_size, rng)),
      whf_(GlorotParameter(hidden_size, hidden_size, rng)),
      bf_(Var::Parameter(linalg::Matrix::Constant(1, hidden_size, 1.0))),
      wxg_(GlorotParameter(input_size, hidden_size, rng)),
      whg_(GlorotParameter(hidden_size, hidden_size, rng)),
      bg_(ZeroBias(hidden_size)),
      wxo_(GlorotParameter(input_size, hidden_size, rng)),
      who_(GlorotParameter(hidden_size, hidden_size, rng)),
      bo_(ZeroBias(hidden_size)) {}

LstmCell::State LstmCell::Forward(const Var& x, const State& state) const {
  TSG_CHECK_EQ(x.cols(), input_size_);
  const Var i = ag::GateBiasAct(x, wxi_, state.h, whi_, bi_, ag::Act::kSigmoid);
  const Var f = ag::GateBiasAct(x, wxf_, state.h, whf_, bf_, ag::Act::kSigmoid);
  const Var g = ag::GateBiasAct(x, wxg_, state.h, whg_, bg_, ag::Act::kTanh);
  const Var o = ag::GateBiasAct(x, wxo_, state.h, who_, bo_, ag::Act::kSigmoid);
  const Var c = ag::MulAdd(f, state.c, i, g);  // f .* c + i .* g in one node
  const Var h = Mul(o, Tanh(c));
  return {h, c};
}

std::vector<Var> LstmCell::Parameters() const {
  return {wxi_, whi_, bi_, wxf_, whf_, bf_, wxg_, whg_, bg_, wxo_, who_, bo_};
}

GruStack::GruStack(int64_t input_size, int64_t hidden_size, int num_layers, Rng& rng)
    : hidden_size_(hidden_size) {
  TSG_CHECK_GE(num_layers, 1);
  for (int layer = 0; layer < num_layers; ++layer) {
    cells_.push_back(std::make_unique<GruCell>(layer == 0 ? input_size : hidden_size,
                                               hidden_size, rng));
  }
}

std::vector<Var> GruStack::Forward(const std::vector<Var>& inputs,
                                   std::vector<Var>* final_states) const {
  TSG_CHECK(!inputs.empty());
  const int64_t batch = inputs[0].rows();
  std::vector<Var> states;
  states.reserve(cells_.size());
  for (const auto& cell : cells_) states.push_back(cell->InitialState(batch));

  std::vector<Var> outputs;
  outputs.reserve(inputs.size());
  for (const Var& x_t : inputs) {
    Var h = x_t;
    for (size_t layer = 0; layer < cells_.size(); ++layer) {
      states[layer] = cells_[layer]->Forward(h, states[layer]);
      h = states[layer];
    }
    outputs.push_back(h);
  }
  if (final_states != nullptr) *final_states = states;
  return outputs;
}

std::vector<Var> GruStack::Parameters() const {
  std::vector<Var> params;
  for (const auto& cell : cells_) {
    for (const Var& p : cell->Parameters()) params.push_back(p);
  }
  return params;
}

LstmStack::LstmStack(int64_t input_size, int64_t hidden_size, int num_layers, Rng& rng)
    : hidden_size_(hidden_size) {
  TSG_CHECK_GE(num_layers, 1);
  for (int layer = 0; layer < num_layers; ++layer) {
    cells_.push_back(std::make_unique<LstmCell>(layer == 0 ? input_size : hidden_size,
                                                hidden_size, rng));
  }
}

std::vector<Var> LstmStack::Forward(const std::vector<Var>& inputs,
                                    std::vector<Var>* final_states) const {
  TSG_CHECK(!inputs.empty());
  const int64_t batch = inputs[0].rows();
  std::vector<LstmCell::State> states;
  states.reserve(cells_.size());
  for (const auto& cell : cells_) states.push_back(cell->InitialState(batch));

  std::vector<Var> outputs;
  outputs.reserve(inputs.size());
  for (const Var& x_t : inputs) {
    Var h = x_t;
    for (size_t layer = 0; layer < cells_.size(); ++layer) {
      states[layer] = cells_[layer]->Forward(h, states[layer]);
      h = states[layer].h;
    }
    outputs.push_back(h);
  }
  if (final_states != nullptr) {
    final_states->clear();
    for (const auto& s : states) final_states->push_back(s.h);
  }
  return outputs;
}

std::vector<Var> LstmStack::Parameters() const {
  std::vector<Var> params;
  for (const auto& cell : cells_) {
    for (const Var& p : cell->Parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace tsg::nn
