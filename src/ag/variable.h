#ifndef TSG_AG_VARIABLE_H_
#define TSG_AG_VARIABLE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>

#include "linalg/matrix.h"

namespace tsg::ag {

using linalg::Matrix;

struct Node;

/// Backward implementation of one op: accumulates input gradients given the
/// node's own gradient. A plain function pointer (no captured state — payloads
/// live in the Node) so tape nodes are POD-sized and arena-poolable.
using BackwardFn = void (*)(Node* self, const Matrix& grad_out);

/// Widest op fan-in: the fused GRU/LSTM gate (x, Wx, h, Wh, b).
inline constexpr int kMaxInputs = 5;

/// One entry on the autodiff tape: a value, its (lazily allocated) gradient,
/// fixed input slots, and the op's backward function with its payload (scalars
/// s0/s1, integers i0/i1, and an auxiliary matrix for stashed
/// pre-activations). Nodes are either *pooled* — placement-constructed in the
/// thread's tape arena while a StepScope is open, reclaimed wholesale at scope
/// reset — or heap-owned behind a shared_ptr (parameters, and all graphs built
/// outside a scope). Heap nodes keep strong refs to their inputs; pooled nodes
/// rely on the arena keeping the whole step graph alive.
///
/// In the steady state every matrix a pooled node holds is arena-borrowed and
/// its strong[] slots are empty, so its destructor would be a no-op; the tape
/// therefore only runs destructors for the few pooled nodes that own heap
/// storage (a constant wrapping a caller-built matrix, say) and reclaims the
/// rest by rewinding the arena — scope reset never walks the full step graph.
struct Node {
  Matrix value;
  Matrix grad;
  /// Op payload matrix (dropout masks, stashed pre-activations). Assign through
  /// SetAux, never directly: pooled nodes are only destroyed at scope reset if
  /// they own heap storage, and SetAux is what keeps that bookkeeping honest.
  Matrix aux;
  double s0 = 0.0;
  double s1 = 0.0;
  int64_t i0 = 0;
  int64_t i1 = 0;
  int num_inputs = 0;
  bool requires_grad = false;
  bool pooled = false;
  bool dtor_listed = false;  // Pooled node is on the tape's destruction list.
  uint64_t sweep = 0;  // Backward() visitation mark (monotone sweep ids)
  BackwardFn backward = nullptr;
  Node* in[kMaxInputs] = {};
  std::shared_ptr<Node> strong[kMaxInputs];

  /// Stores an op payload matrix, registering the node for destruction at scope
  /// reset when the matrix owns heap storage (arena-borrowed payloads — the
  /// steady state — keep the node off the reset walk entirely).
  void SetAux(Matrix m);

  /// Ensures `grad` is allocated (zero-filled) with the value's shape: from the
  /// tape arena for pooled nodes, from the heap for leaves — where it persists
  /// across steps, so steady-state ZeroGrad touches no allocator.
  Matrix& EnsureGrad();
};

class Var;

namespace internal {

/// Creates an op node: value, input slots, and the backward function.
/// requires_grad is inherited from the inputs so backward sweeps skip constant
/// subgraphs; the node pools into the active tape when a StepScope is open.
/// Op payloads (s0/s1/i0/i1/aux) are assigned on the returned Var's node().
Var MakeOp(Matrix value, std::initializer_list<Var> inputs, BackwardFn backward);

/// True if any input requires a gradient.
bool AnyRequiresGrad(std::initializer_list<Var> inputs);

}  // namespace internal

/// Lightweight handle to a tape node. Vars copy cheaply and are the currency of
/// the nn layer API: layer forward passes map Vars to Vars, and Backward() on a
/// scalar loss fills parameter gradients. A Var holds a raw node pointer plus,
/// for heap nodes only, the owning shared_ptr.
class Var {
 public:
  Var() = default;
  /// Wraps a value; `requires_grad` marks trainable leaves (parameters), which
  /// always live on the heap. Constants pool into the active tape when a
  /// StepScope is open.
  explicit Var(Matrix value, bool requires_grad = false);

  /// A non-differentiable constant (data, noise, targets).
  static Var Constant(Matrix value) { return Var(std::move(value), false); }
  /// A trainable parameter leaf.
  static Var Parameter(Matrix value) { return Var(std::move(value), true); }

  bool defined() const { return node_ != nullptr; }
  const Matrix& value() const { return node_->value; }
  Matrix& mutable_value() { return node_->value; }
  const Matrix& grad() const { return node_->grad; }
  bool requires_grad() const { return node_ != nullptr && node_->requires_grad; }

  int64_t rows() const { return node_->value.rows(); }
  int64_t cols() const { return node_->value.cols(); }

  Node* node() const { return node_; }

  /// Zeroes this leaf's gradient buffer (optimizers call this between steps).
  void ZeroGrad() {
    if (node_ != nullptr) node_->EnsureGrad().SetZero();
  }

 private:
  friend Var internal::MakeOp(Matrix, std::initializer_list<Var>, BackwardFn);

  Var(Node* node, std::shared_ptr<Node> owner)
      : node_(node), owner_(std::move(owner)) {}

  Node* node_ = nullptr;
  std::shared_ptr<Node> owner_;
};

/// Reverse-mode sweep from a scalar (1x1) root. Gradients accumulate into every
/// reachable node that requires them, PyTorch-style: call ZeroGrad on parameters
/// between optimization steps; intermediate nodes are fresh per forward pass.
/// Allocation-free in steady state: visitation uses per-node sweep marks and
/// thread-local reusable work stacks instead of hash sets.
void Backward(const Var& root);

}  // namespace tsg::ag

#endif  // TSG_AG_VARIABLE_H_
