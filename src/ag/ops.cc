#include "ag/ops.h"

#include <cmath>
#include <cstring>

#include "ag/tape.h"
#include "kernels/kernels.h"

namespace tsg::ag {
namespace {

using internal::MakeOp;

double SigmoidScalar(double x) {
  if (x >= 0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

/// grad(n) += alpha * g (matching shapes), straight into the gradient buffer.
void AxpyInto(Node* n, double alpha, const Matrix& g) {
  if (!n->requires_grad) return;
  Matrix& gr = n->EnsureGrad();
  kernels::Axpy(g.size(), alpha, g.data(), gr.data());
}

/// grad(n)[i] += g[i] * w[i] (the Hadamard chain-rule term).
void MulInto(Node* n, const Matrix& g, const Matrix& w) {
  if (!n->requires_grad) return;
  Matrix& gr = n->EnsureGrad();
  for (int64_t i = 0; i < g.size(); ++i) gr[i] += g[i] * w[i];
}

/// Element-wise map helper for unary ops (output from the step arena).
template <typename Fn>
Matrix Map(const Matrix& a, Fn fn) {
  Matrix out = ScratchUninit(a.rows(), a.cols());
  for (int64_t i = 0; i < a.size(); ++i) out[i] = fn(a[i]);
  return out;
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  TSG_CHECK(a.value().SameShape(b.value()));
  Matrix out = ScratchUninit(a.rows(), a.cols());
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  for (int64_t i = 0; i < out.size(); ++i) out[i] = av[i] + bv[i];
  return MakeOp(std::move(out), {a, b}, [](Node* self, const Matrix& g) {
    AxpyInto(self->in[0], 1.0, g);
    AxpyInto(self->in[1], 1.0, g);
  });
}

Var AddScaled(const Var& a, const Var& b, double alpha) {
  TSG_CHECK(a.value().SameShape(b.value()));
  Matrix out = ScratchUninit(a.rows(), a.cols());
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  for (int64_t i = 0; i < out.size(); ++i) out[i] = av[i] + alpha * bv[i];
  Var v = MakeOp(std::move(out), {a, b}, [](Node* self, const Matrix& g) {
    AxpyInto(self->in[0], 1.0, g);
    AxpyInto(self->in[1], self->s0, g);
  });
  v.node()->s0 = alpha;
  return v;
}

Var Sub(const Var& a, const Var& b) {
  TSG_CHECK(a.value().SameShape(b.value()));
  Matrix out = ScratchUninit(a.rows(), a.cols());
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  for (int64_t i = 0; i < out.size(); ++i) out[i] = av[i] - bv[i];
  return MakeOp(std::move(out), {a, b}, [](Node* self, const Matrix& g) {
    AxpyInto(self->in[0], 1.0, g);
    AxpyInto(self->in[1], -1.0, g);
  });
}

Var Mul(const Var& a, const Var& b) {
  TSG_CHECK(a.value().SameShape(b.value()));
  Matrix out = ScratchUninit(a.rows(), a.cols());
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  for (int64_t i = 0; i < out.size(); ++i) out[i] = av[i] * bv[i];
  return MakeOp(std::move(out), {a, b}, [](Node* self, const Matrix& g) {
    MulInto(self->in[0], g, self->in[1]->value);
    MulInto(self->in[1], g, self->in[0]->value);
  });
}

// Forward and both gradient products route through the kernel GEMMs; the
// backward accumulates straight into the input gradient buffers (the kernels
// are C +=), so the op allocates nothing beyond its arena output.
Var MatMul(const Var& a, const Var& b) {
  TSG_CHECK_EQ(a.cols(), b.rows()) << "matmul " << a.rows() << "x" << a.cols()
                                   << " * " << b.rows() << "x" << b.cols();
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix out = ScratchZero(m, n);
  kernels::Gemm(m, n, k, a.value().data(), k, b.value().data(), n, out.data(), n);
  return MakeOp(std::move(out), {a, b}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    Node* b = self->in[1];
    const int64_t m = g.rows(), n = g.cols(), k = a->value.cols();
    if (a->requires_grad) {  // dA += g * B^T
      Matrix& gr = a->EnsureGrad();
      kernels::GemmTransB(m, k, n, g.data(), n, b->value.data(), n, gr.data(), k);
    }
    if (b->requires_grad) {  // dB += A^T * g
      Matrix& gr = b->EnsureGrad();
      kernels::GemmTransA(k, n, m, a->value.data(), k, g.data(), n, gr.data(), n);
    }
  });
}

Var Transpose(const Var& a) {
  const Matrix& av = a.value();
  Matrix out = ScratchUninit(a.cols(), a.rows());
  for (int64_t i = 0; i < av.rows(); ++i) {
    for (int64_t j = 0; j < av.cols(); ++j) out[j * av.rows() + i] = av[i * av.cols() + j];
  }
  return MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    if (!a->requires_grad) return;
    Matrix& gr = a->EnsureGrad();
    for (int64_t i = 0; i < g.rows(); ++i) {
      for (int64_t j = 0; j < g.cols(); ++j) gr[j * g.rows() + i] += g[i * g.cols() + j];
    }
  });
}

Var Neg(const Var& a) {
  Matrix out = Map(a.value(), [](double x) { return -x; });
  return MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    AxpyInto(self->in[0], -1.0, g);
  });
}

Var ScalarMul(const Var& a, double s) {
  Matrix out = Map(a.value(), [s](double x) { return x * s; });
  Var v = MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    AxpyInto(self->in[0], self->s0, g);
  });
  v.node()->s0 = s;
  return v;
}

Var ScalarAdd(const Var& a, double s) {
  Matrix out = Map(a.value(), [s](double x) { return x + s; });
  return MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    AxpyInto(self->in[0], 1.0, g);
  });
}

Var AddRowVec(const Var& a, const Var& b) {
  TSG_CHECK_EQ(b.rows(), 1);
  TSG_CHECK_EQ(a.cols(), b.cols());
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  Matrix out = ScratchUninit(a.rows(), a.cols());
  for (int64_t i = 0; i < av.rows(); ++i) {
    const double* src = av.data() + i * av.cols();
    double* dst = out.data() + i * av.cols();
    for (int64_t j = 0; j < av.cols(); ++j) dst[j] = src[j] + bv[j];
  }
  return MakeOp(std::move(out), {a, b}, [](Node* self, const Matrix& g) {
    AxpyInto(self->in[0], 1.0, g);
    Node* b = self->in[1];
    if (b->requires_grad) {
      Matrix& gr = b->EnsureGrad();
      kernels::ColSumAccum(g.rows(), g.cols(), g.data(), g.cols(), gr.data());
    }
  });
}

Var MulRowVec(const Var& a, const Var& b) {
  TSG_CHECK_EQ(b.rows(), 1);
  TSG_CHECK_EQ(a.cols(), b.cols());
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  Matrix out = ScratchUninit(a.rows(), a.cols());
  for (int64_t i = 0; i < av.rows(); ++i) {
    const double* src = av.data() + i * av.cols();
    double* dst = out.data() + i * av.cols();
    for (int64_t j = 0; j < av.cols(); ++j) dst[j] = src[j] * bv[j];
  }
  return MakeOp(std::move(out), {a, b}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    Node* b = self->in[1];
    if (a->requires_grad) {
      Matrix& gr = a->EnsureGrad();
      for (int64_t i = 0; i < g.rows(); ++i) {
        for (int64_t j = 0; j < g.cols(); ++j) {
          gr(i, j) += g(i, j) * b->value[j];
        }
      }
    }
    if (b->requires_grad) {
      Matrix& gr = b->EnsureGrad();
      for (int64_t i = 0; i < g.rows(); ++i) {
        for (int64_t j = 0; j < g.cols(); ++j) {
          gr[j] += g(i, j) * a->value(i, j);
        }
      }
    }
  });
}

Var Sigmoid(const Var& a) {
  // Backward recovers the derivative from the node's own output value.
  Matrix out = Map(a.value(), SigmoidScalar);
  return MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    if (!a->requires_grad) return;
    Matrix& gr = a->EnsureGrad();
    const Matrix& out = self->value;
    for (int64_t i = 0; i < g.size(); ++i) gr[i] += g[i] * out[i] * (1.0 - out[i]);
  });
}

Var Tanh(const Var& a) {
  Matrix out = Map(a.value(), [](double x) { return std::tanh(x); });
  return MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    if (!a->requires_grad) return;
    Matrix& gr = a->EnsureGrad();
    const Matrix& out = self->value;
    for (int64_t i = 0; i < g.size(); ++i) gr[i] += g[i] * (1.0 - out[i] * out[i]);
  });
}

Var Relu(const Var& a) {
  Matrix out = Map(a.value(), [](double x) { return x > 0 ? x : 0.0; });
  return MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    if (!a->requires_grad) return;
    Matrix& gr = a->EnsureGrad();
    for (int64_t i = 0; i < g.size(); ++i) {
      if (a->value[i] > 0) gr[i] += g[i];
    }
  });
}

Var LeakyRelu(const Var& a, double alpha) {
  Matrix out = Map(a.value(), [alpha](double x) { return x > 0 ? x : alpha * x; });
  Var v = MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    if (!a->requires_grad) return;
    const double alpha = self->s0;
    Matrix& gr = a->EnsureGrad();
    for (int64_t i = 0; i < g.size(); ++i) {
      gr[i] += a->value[i] > 0 ? g[i] : alpha * g[i];
    }
  });
  v.node()->s0 = alpha;
  return v;
}

Var Exp(const Var& a) {
  Matrix out = Map(a.value(), [](double x) { return std::exp(x); });
  return MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    MulInto(self->in[0], g, self->value);
  });
}

Var Softplus(const Var& a) {
  Matrix out = Map(a.value(), [](double x) {
    // Stable softplus: max(x, 0) + log1p(exp(-|x|)).
    return std::max(x, 0.0) + std::log1p(std::exp(-std::fabs(x)));
  });
  return MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    if (!a->requires_grad) return;
    Matrix& gr = a->EnsureGrad();
    for (int64_t i = 0; i < g.size(); ++i) {
      gr[i] += g[i] * SigmoidScalar(a->value[i]);
    }
  });
}

Var Square(const Var& a) {
  Matrix out = Map(a.value(), [](double x) { return x * x; });
  return MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    if (!a->requires_grad) return;
    Matrix& gr = a->EnsureGrad();
    for (int64_t i = 0; i < g.size(); ++i) gr[i] += 2.0 * g[i] * a->value[i];
  });
}

Var Sqrt(const Var& a) {
  Matrix out = Map(a.value(), [](double x) { return std::sqrt(x); });
  return MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    if (!a->requires_grad) return;
    Matrix& gr = a->EnsureGrad();
    const Matrix& out = self->value;
    for (int64_t i = 0; i < g.size(); ++i) {
      gr[i] += g[i] / std::max(2.0 * out[i], 1e-12);
    }
  });
}

Var Abs(const Var& a) {
  Matrix out = Map(a.value(), [](double x) { return std::fabs(x); });
  return MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    if (!a->requires_grad) return;
    Matrix& gr = a->EnsureGrad();
    for (int64_t i = 0; i < g.size(); ++i) {
      gr[i] += a->value[i] >= 0 ? g[i] : -g[i];
    }
  });
}

Var Sum(const Var& a) {
  Matrix out = ScratchUninit(1, 1);
  out(0, 0) = a.value().Sum();
  return MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    if (!a->requires_grad) return;
    const double g0 = g(0, 0);
    Matrix& gr = a->EnsureGrad();
    for (int64_t i = 0; i < gr.size(); ++i) gr[i] += g0;
  });
}

Var Mean(const Var& a) {
  const double inv = a.value().size() == 0
                         ? 0.0
                         : 1.0 / static_cast<double>(a.value().size());
  Matrix out = ScratchUninit(1, 1);
  out(0, 0) = a.value().Sum() * inv;
  Var v = MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    if (!a->requires_grad) return;
    const double g0 = g(0, 0) * self->s0;
    Matrix& gr = a->EnsureGrad();
    for (int64_t i = 0; i < gr.size(); ++i) gr[i] += g0;
  });
  v.node()->s0 = inv;
  return v;
}

Var ColSum(const Var& a) {
  Matrix out = ScratchZero(1, a.cols());
  kernels::ColSumAccum(a.rows(), a.cols(), a.value().data(), a.cols(), out.data());
  return MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    if (!a->requires_grad) return;
    Matrix& gr = a->EnsureGrad();
    for (int64_t i = 0; i < gr.rows(); ++i) {
      kernels::Axpy(g.cols(), 1.0, g.data(), gr.data() + i * gr.cols());
    }
  });
}

Var ColMeanVar(const Var& a) {
  return ScalarMul(ColSum(a), a.rows() == 0 ? 0.0 : 1.0 / static_cast<double>(a.rows()));
}

Var ConcatCols(const Var& a, const Var& b) {
  TSG_CHECK_EQ(a.rows(), b.rows());
  Matrix out = ScratchUninit(a.rows(), a.cols() + b.cols());
  out.SetBlock(0, 0, a.value());
  out.SetBlock(0, a.cols(), b.value());
  Var v = MakeOp(std::move(out), {a, b}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    Node* b = self->in[1];
    const int64_t a_cols = self->i0;
    const int64_t b_cols = self->i1;
    if (a->requires_grad) {
      Matrix& gr = a->EnsureGrad();
      for (int64_t i = 0; i < g.rows(); ++i) {
        kernels::Axpy(a_cols, 1.0, g.data() + i * g.cols(), gr.data() + i * a_cols);
      }
    }
    if (b->requires_grad) {
      Matrix& gr = b->EnsureGrad();
      for (int64_t i = 0; i < g.rows(); ++i) {
        kernels::Axpy(b_cols, 1.0, g.data() + i * g.cols() + a_cols,
                      gr.data() + i * b_cols);
      }
    }
  });
  v.node()->i0 = a.cols();
  v.node()->i1 = b.cols();
  return v;
}

Var ConcatRows(const Var& a, const Var& b) {
  TSG_CHECK_EQ(a.cols(), b.cols());
  Matrix out = ScratchUninit(a.rows() + b.rows(), a.cols());
  out.SetBlock(0, 0, a.value());
  out.SetBlock(a.rows(), 0, b.value());
  Var v = MakeOp(std::move(out), {a, b}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    Node* b = self->in[1];
    const int64_t a_rows = self->i0;
    if (a->requires_grad) {
      Matrix& gr = a->EnsureGrad();
      kernels::Axpy(a_rows * g.cols(), 1.0, g.data(), gr.data());
    }
    if (b->requires_grad) {
      Matrix& gr = b->EnsureGrad();
      kernels::Axpy(gr.size(), 1.0, g.data() + a_rows * g.cols(), gr.data());
    }
  });
  v.node()->i0 = a.rows();
  return v;
}

Var SliceCols(const Var& a, int64_t col0, int64_t ncols) {
  const Matrix& av = a.value();
  Matrix out = ScratchUninit(a.rows(), ncols);
  for (int64_t i = 0; i < av.rows(); ++i) {
    std::memcpy(out.data() + i * ncols, av.data() + i * av.cols() + col0,
                static_cast<size_t>(ncols) * sizeof(double));
  }
  Var v = MakeOp(std::move(out), {a}, [](Node* self, const Matrix& g) {
    Node* a = self->in[0];
    if (!a->requires_grad) return;
    const int64_t col0 = self->i0;
    Matrix& gr = a->EnsureGrad();
    for (int64_t i = 0; i < g.rows(); ++i) {
      kernels::Axpy(g.cols(), 1.0, g.data() + i * g.cols(),
                    gr.data() + i * gr.cols() + col0);
    }
  });
  v.node()->i0 = col0;
  return v;
}

Var Detach(const Var& a) { return Var::Constant(ScratchCopy(a.value())); }

// ---- Fused layer/gate ops. --------------------------------------------------

namespace {

/// Shared epilogue backward: dpre = g * act'(pre), built from the node's own
/// output (aux holds the stashed pre-activation when the op needed one). For
/// kNone the gradient passes through untouched and no scratch is used.
struct DPre {
  Matrix storage;
  const double* data = nullptr;
};

DPre EpilogueBackward(Node* self, const Matrix& g) {
  DPre dpre;
  const Act act = static_cast<Act>(self->i0);
  if (act == Act::kNone) {
    dpre.data = g.data();
    return dpre;
  }
  dpre.storage = ScratchUninit(g.rows(), g.cols());
  kernels::ActBackwardMul(act, self->s0, g.size(), g.data(), self->value.data(),
                          self->aux.data(), dpre.storage.data());
  dpre.data = dpre.storage.data();
  return dpre;
}

/// dx += dpre * W^T and dW += x^T * dpre for one (x, W) product feeding an
/// epilogue; db += column sums of dpre. Null node pointers are skipped.
void AccumulateLinearGrads(Node* x, Node* w, Node* b, const double* dpre,
                           int64_t m, int64_t n) {
  const int64_t k = x->value.cols();
  if (x->requires_grad) {
    Matrix& gr = x->EnsureGrad();
    kernels::GemmTransB(m, k, n, dpre, n, w->value.data(), n, gr.data(), k);
  }
  if (w->requires_grad) {
    Matrix& gr = w->EnsureGrad();
    kernels::GemmTransA(k, n, m, x->value.data(), k, dpre, n, gr.data(), n);
  }
  if (b != nullptr && b->requires_grad) {
    Matrix& gr = b->EnsureGrad();
    kernels::ColSumAccum(m, n, dpre, n, gr.data());
  }
}

void LinearBiasActBackward(Node* self, const Matrix& g) {
  const DPre dpre = EpilogueBackward(self, g);
  AccumulateLinearGrads(self->in[0], self->in[1], self->in[2], dpre.data,
                        g.rows(), g.cols());
}

void GateBiasActBackward(Node* self, const Matrix& g) {
  const DPre dpre = EpilogueBackward(self, g);
  AccumulateLinearGrads(self->in[0], self->in[1], self->in[4], dpre.data,
                        g.rows(), g.cols());
  AccumulateLinearGrads(self->in[2], self->in[3], nullptr, dpre.data, g.rows(),
                        g.cols());
}

}  // namespace

Var LinearBiasAct(const Var& x, const Var& w, const Var& b, Act act, double leak) {
  TSG_CHECK_EQ(x.cols(), w.rows());
  TSG_CHECK_EQ(b.rows(), 1);
  TSG_CHECK_EQ(b.cols(), w.cols());
  const int64_t m = x.rows(), n = w.cols(), k = x.cols();
  Matrix out = ScratchUninit(m, n);
  Matrix pre;
  double* pre_ptr = nullptr;
  if (act == Act::kSoftplus) {
    pre = ScratchUninit(m, n);
    pre_ptr = pre.data();
  }
  kernels::GemmBiasAct(m, n, k, x.value().data(), k, w.value().data(), n,
                       b.value().data(), out.data(), n, act, leak, pre_ptr);
  Var v = MakeOp(std::move(out), {x, w, b}, &LinearBiasActBackward);
  Node* node = v.node();
  node->i0 = static_cast<int64_t>(act);
  node->s0 = leak;
  node->SetAux(std::move(pre));
  return v;
}

Var GateBiasAct(const Var& x, const Var& wx, const Var& h, const Var& wh,
                const Var& b, Act act, double leak) {
  TSG_CHECK_EQ(x.cols(), wx.rows());
  TSG_CHECK_EQ(h.cols(), wh.rows());
  TSG_CHECK_EQ(x.rows(), h.rows());
  TSG_CHECK_EQ(wx.cols(), wh.cols());
  TSG_CHECK_EQ(b.rows(), 1);
  TSG_CHECK_EQ(b.cols(), wx.cols());
  const int64_t m = x.rows(), n = wx.cols();
  // pre = x Wx + h Wh accumulates the x-products then the h-products per
  // element — fixed order, identical across backends and thread counts.
  Matrix out = ScratchZero(m, n);
  kernels::Gemm(m, n, x.cols(), x.value().data(), x.cols(), wx.value().data(), n,
                out.data(), n);
  kernels::Gemm(m, n, h.cols(), h.value().data(), h.cols(), wh.value().data(), n,
                out.data(), n);
  Matrix pre;
  double* pre_ptr = nullptr;
  if (act == Act::kSoftplus) {
    pre = ScratchUninit(m, n);
    pre_ptr = pre.data();
  }
  kernels::BiasActInPlace(m, n, out.data(), n, b.value().data(), act, leak,
                          pre_ptr);
  Var v = MakeOp(std::move(out), {x, wx, h, wh, b}, &GateBiasActBackward);
  Node* node = v.node();
  node->i0 = static_cast<int64_t>(act);
  node->s0 = leak;
  node->SetAux(std::move(pre));
  return v;
}

Var GateBlend(const Var& z, const Var& h, const Var& n) {
  TSG_CHECK(z.value().SameShape(h.value()));
  TSG_CHECK(z.value().SameShape(n.value()));
  const Matrix& zv = z.value();
  const Matrix& hv = h.value();
  const Matrix& nv = n.value();
  Matrix out = ScratchUninit(z.rows(), z.cols());
  for (int64_t i = 0; i < out.size(); ++i) {
    out[i] = zv[i] * hv[i] + (1.0 - zv[i]) * nv[i];
  }
  return MakeOp(std::move(out), {z, h, n}, [](Node* self, const Matrix& g) {
    Node* z = self->in[0];
    Node* h = self->in[1];
    Node* n = self->in[2];
    if (z->requires_grad) {
      Matrix& gr = z->EnsureGrad();
      for (int64_t i = 0; i < g.size(); ++i) {
        gr[i] += g[i] * (h->value[i] - n->value[i]);
      }
    }
    MulInto(h, g, z->value);
    if (n->requires_grad) {
      Matrix& gr = n->EnsureGrad();
      for (int64_t i = 0; i < g.size(); ++i) {
        gr[i] += g[i] * (1.0 - z->value[i]);
      }
    }
  });
}

Var MulAdd(const Var& a, const Var& b, const Var& c, const Var& d) {
  TSG_CHECK(a.value().SameShape(b.value()));
  TSG_CHECK(a.value().SameShape(c.value()));
  TSG_CHECK(a.value().SameShape(d.value()));
  const Matrix& av = a.value();
  const Matrix& bv = b.value();
  const Matrix& cv = c.value();
  const Matrix& dv = d.value();
  Matrix out = ScratchUninit(a.rows(), a.cols());
  for (int64_t i = 0; i < out.size(); ++i) {
    out[i] = av[i] * bv[i] + cv[i] * dv[i];
  }
  return MakeOp(std::move(out), {a, b, c, d}, [](Node* self, const Matrix& g) {
    MulInto(self->in[0], g, self->in[1]->value);
    MulInto(self->in[1], g, self->in[0]->value);
    MulInto(self->in[2], g, self->in[3]->value);
    MulInto(self->in[3], g, self->in[2]->value);
  });
}

// ---- Losses. ----------------------------------------------------------------

Var MseLoss(const Var& pred, const Var& target) {
  TSG_CHECK(pred.value().SameShape(target.value()));
  const int64_t n = pred.value().size();
  const double inv = n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = pred.value()[i] - target.value()[i];
    loss += d * d;
  }
  Matrix out = ScratchUninit(1, 1);
  out(0, 0) = loss * inv;
  Var v = MakeOp(std::move(out), {pred, target}, [](Node* self, const Matrix& g) {
    Node* pred = self->in[0];
    Node* target = self->in[1];
    const double scale = 2.0 * g(0, 0) * self->s0;
    if (pred->requires_grad) {
      Matrix& gr = pred->EnsureGrad();
      for (int64_t i = 0; i < gr.size(); ++i) {
        gr[i] += scale * (pred->value[i] - target->value[i]);
      }
    }
    if (target->requires_grad) {
      Matrix& gr = target->EnsureGrad();
      for (int64_t i = 0; i < gr.size(); ++i) {
        gr[i] += -scale * (pred->value[i] - target->value[i]);
      }
    }
  });
  v.node()->s0 = inv;
  return v;
}

Var BceWithLogits(const Var& logits, const Var& targets) {
  TSG_CHECK(logits.value().SameShape(targets.value()));
  const int64_t n = logits.value().size();
  const double inv = n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double x = logits.value()[i], z = targets.value()[i];
    loss += std::max(x, 0.0) - x * z + std::log1p(std::exp(-std::fabs(x)));
  }
  Matrix out = ScratchUninit(1, 1);
  out(0, 0) = loss * inv;
  Var v = MakeOp(std::move(out), {logits, targets}, [](Node* self, const Matrix& g) {
    Node* logits = self->in[0];
    Node* targets = self->in[1];
    if (!logits->requires_grad) return;
    const double scale = g(0, 0) * self->s0;
    Matrix& gr = logits->EnsureGrad();
    for (int64_t i = 0; i < gr.size(); ++i) {
      gr[i] += scale * (SigmoidScalar(logits->value[i]) - targets->value[i]);
    }
  });
  v.node()->s0 = inv;
  return v;
}

Var Randn(int64_t rows, int64_t cols, Rng& rng, double stddev) {
  Matrix m = ScratchUninit(rows, cols);
  rng.FillNormal(m.data(), m.size());
  if (stddev != 1.0) m *= stddev;
  return Var::Constant(std::move(m));
}

}  // namespace tsg::ag
