#ifndef TSG_AG_OPS_H_
#define TSG_AG_OPS_H_

#include <cstdint>
#include "ag/variable.h"
#include "base/rng.h"
#include "kernels/kernels.h"

namespace tsg::ag {

/// Activation tag shared with the fused kernel epilogues.
using kernels::Act;

/// Differentiable operations over Vars. Every function builds a tape node whose
/// backward function accumulates gradients into its inputs; composing these is how all
/// ten TSG methods and all post-hoc evaluation networks are expressed. Outputs and
/// backward temporaries come from the active StepScope's arena (heap otherwise), and
/// every backward accumulates *directly* into input gradient buffers — steady-state
/// training steps allocate nothing.

// ---- Element-wise binary ops (shapes must match). ----
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
/// a + alpha * b as a single tape node — the fused form of
/// Add(a, ScalarMul(b, alpha)), one output pass and one backward instead of
/// two of each. The workhorse of Euler ODE steps (h + dt * f).
Var AddScaled(const Var& a, const Var& b, double alpha);

// ---- Matrix ops. ----
Var MatMul(const Var& a, const Var& b);
Var Transpose(const Var& a);

// ---- Scalar-argument ops. ----
Var Neg(const Var& a);
Var ScalarMul(const Var& a, double s);
Var ScalarAdd(const Var& a, double s);

// ---- Broadcasting ops (b is a 1 x C row vector; a is B x C). ----
Var AddRowVec(const Var& a, const Var& b);
Var MulRowVec(const Var& a, const Var& b);

// ---- Activations / element-wise nonlinearities. ----
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Relu(const Var& a);
Var LeakyRelu(const Var& a, double alpha = 0.2);
Var Exp(const Var& a);
Var Softplus(const Var& a);
Var Square(const Var& a);
Var Sqrt(const Var& a);
Var Abs(const Var& a);

// ---- Reductions (outputs are 1x1 unless stated). ----
Var Sum(const Var& a);
Var Mean(const Var& a);
/// Column sums -> 1 x C.
Var ColSum(const Var& a);
/// Column means -> 1 x C.
Var ColMeanVar(const Var& a);

// ---- Shape ops. ----
Var ConcatCols(const Var& a, const Var& b);
Var ConcatRows(const Var& a, const Var& b);
Var SliceCols(const Var& a, int64_t col0, int64_t ncols);

/// Cuts the tape: returns a constant with a copy of a's value. Used when training a
/// GAN discriminator on generator output, and in the VQ-VAE straight-through trick.
Var Detach(const Var& a);

// ---- Fused ops (single tape node per layer/gate; kernel epilogues). ----
/// act(x W + b): the whole Dense layer as one node — one GEMM with a fused
/// bias+activation epilogue forward; backward runs the three gradient GEMMs
/// straight into the input gradient buffers. b is 1 x cols(W).
Var LinearBiasAct(const Var& x, const Var& w, const Var& b, Act act,
                  double leak = 0.2);
/// act(x Wx + h Wh + b): one recurrent gate as a single node (the GRU/LSTM
/// inner-loop workhorse; 5 inputs).
Var GateBiasAct(const Var& x, const Var& wx, const Var& h, const Var& wh,
                const Var& b, Act act, double leak = 0.2);
/// z .* h + (1 - z) .* n — the GRU state blend, fused into one node.
Var GateBlend(const Var& z, const Var& h, const Var& n);
/// a .* b + c .* d — the LSTM cell-state update (f .* c + i .* g), fused.
Var MulAdd(const Var& a, const Var& b, const Var& c, const Var& d);

// ---- Losses (scalar outputs). ----
/// Mean squared error over all elements.
Var MseLoss(const Var& pred, const Var& target);
/// Numerically stable binary cross entropy on raw logits; targets in [0, 1].
Var BceWithLogits(const Var& logits, const Var& targets);

// ---- Constants. ----
/// Non-differentiable i.i.d. N(0, stddev^2) sample.
Var Randn(int64_t rows, int64_t cols, Rng& rng, double stddev = 1.0);

// ---- Operator sugar. ----
inline Var operator+(const Var& a, const Var& b) { return Add(a, b); }
inline Var operator-(const Var& a, const Var& b) { return Sub(a, b); }
inline Var operator*(const Var& a, const Var& b) { return Mul(a, b); }
inline Var operator-(const Var& a) { return Neg(a); }
inline Var operator*(const Var& a, double s) { return ScalarMul(a, s); }
inline Var operator*(double s, const Var& a) { return ScalarMul(a, s); }

}  // namespace tsg::ag

#endif  // TSG_AG_OPS_H_
