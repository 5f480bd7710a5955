#ifndef TSG_AG_TAPE_H_
#define TSG_AG_TAPE_H_

#include <cstdint>
#include <vector>

#include "base/arena.h"
#include "linalg/matrix.h"

namespace tsg::ag {

struct Node;

using linalg::Matrix;

/// Per-thread autodiff tape: a base::Arena that owns the Node storage, Matrix
/// temporaries, and gradient buffers of one training step's graph. While a
/// StepScope is open, every op node and every Scratch() matrix is bump-allocated
/// from the arena; closing the scope destroys the step's nodes and rewinds the
/// arena without releasing its chunks. After the first (warm-up) step the arena
/// is marked steady-state: the same graph shape replays entirely out of retained
/// chunks, so steps 2..N of a training loop perform zero heap allocations in the
/// autodiff substrate (tests/alloc_test.cc holds this to literally zero).
///
/// Lifetime contract: a pooled graph must be built, differentiated, and dropped
/// within one scope. Anything that must survive the scope — parameter values and
/// gradients, sampled outputs — lives on the heap (parameters always do; copies
/// detach borrowed storage).
class Tape {
 public:
  /// The active tape of the calling thread, or nullptr when no StepScope is
  /// open (graphs then fall back to heap nodes, the pre-arena behavior).
  static Tape* Active();

  /// Arena-backed uninitialized node storage. The caller placement-constructs
  /// the Node and calls NoteNodeCreated(); storage is reclaimed wholesale by
  /// the arena rewind at Reset().
  void* AllocateNode();
  /// Counts a pooled node for the per-step graph-size metric.
  void NoteNodeCreated() { ++node_count_; }
  /// Puts a pooled node on the destruction list. Only nodes that own heap
  /// storage (non-borrowed value or aux) belong here — steady-state nodes are
  /// fully arena-backed, their destructors would be no-ops, and Reset() must
  /// not pay a cache-cold walk over the whole step graph to run them.
  void RegisterForDtor(Node* n) { dtor_nodes_.push_back(n); }

  double* AllocateDoubles(int64_t count) {
    return arena_.AllocateDoubles(static_cast<size_t>(count));
  }
  /// Borrowed (arena-backed) matrices: uninitialized / zero-filled.
  Matrix Scratch(int64_t rows, int64_t cols) {
    return Matrix::Borrowed(rows, cols, AllocateDoubles(rows * cols));
  }
  Matrix ScratchZero(int64_t rows, int64_t cols) {
    Matrix m = Scratch(rows, cols);
    m.SetZero();
    return m;
  }

  /// Destroys the step's heap-owning nodes and rewinds the arena (chunks
  /// retained); the rest of the graph is reclaimed by the rewind alone.
  void Reset();

  /// Scope bookkeeping: marks one full training step done; from the second step
  /// on, arena chunk growth counts against the zero-allocation contract.
  void CompleteStep();

  int64_t nodes_since_reset() const { return node_count_; }
  size_t arena_bytes_peak() const { return arena_.bytes_peak(); }
  int64_t steady_state_chunk_allocs() const {
    return arena_.steady_state_chunk_allocs();
  }

 private:
  friend class StepScope;

  base::Arena arena_;
  std::vector<Node*> dtor_nodes_;  // Only pooled nodes that own heap storage.
  int64_t node_count_ = 0;
  int64_t steps_completed_ = 0;
  int depth_ = 0;
};

/// RAII activation of the thread's tape for one training-step scope. Methods
/// open one at the top of each batch-loop body — *around* every graph built in
/// that iteration, because GAN steps reuse generator graphs across two
/// GuardedStep calls — and the destructor resets the tape. Nested scopes are
/// no-ops (the outermost owns the reset).
class StepScope {
 public:
  StepScope();
  ~StepScope();
  StepScope(const StepScope&) = delete;
  StepScope& operator=(const StepScope&) = delete;

 private:
  Tape* tape_;
};

/// Uninitialized / zero-filled matrix from the active tape's arena, or an
/// owning heap matrix when no scope is open. The workhorse allocator for op
/// outputs and backward temporaries.
Matrix ScratchUninit(int64_t rows, int64_t cols);
Matrix ScratchZero(int64_t rows, int64_t cols);
/// Arena-backed copy of `src` (heap copy when no scope is open). Use this to
/// feed persistent data into per-step constants without a heap copy:
/// Var::Constant(ScratchCopy(batch_matrix)).
Matrix ScratchCopy(const Matrix& src);

}  // namespace tsg::ag

#endif  // TSG_AG_TAPE_H_
