#include "ag/tape.h"

#include <cstring>
#include <new>

#include "ag/variable.h"
#include "base/check.h"

namespace tsg::ag {

namespace {

Tape& ThreadTape() {
  thread_local Tape tape;
  return tape;
}

thread_local Tape* t_active = nullptr;

}  // namespace

Tape* Tape::Active() { return t_active; }

void* Tape::AllocateNode() { return arena_.Allocate(sizeof(Node)); }

void Tape::Reset() {
  // Steady-state nodes are fully arena-backed (borrowed matrices, empty
  // strong[] slots — see the Node invariant in variable.h) and are reclaimed
  // by the arena rewind without running their no-op destructors; only the few
  // nodes that own heap storage get destroyed explicitly.
  for (Node* n : dtor_nodes_) n->~Node();
  dtor_nodes_.clear();
  node_count_ = 0;
  arena_.Reset();
}

void Tape::CompleteStep() {
  ++steps_completed_;
  // From here on, any chunk growth means the steady-state zero-allocation
  // contract was missed; the arena tracks it and GuardedStep exports it.
  if (steps_completed_ == 1) arena_.MarkSteadyState();
}

StepScope::StepScope() : tape_(&ThreadTape()) {
  if (tape_->depth_++ == 0) t_active = tape_;
}

StepScope::~StepScope() {
  if (--tape_->depth_ == 0) {
    tape_->CompleteStep();
    tape_->Reset();
    t_active = nullptr;
  }
}

Matrix ScratchUninit(int64_t rows, int64_t cols) {
  Tape* tape = Tape::Active();
  if (tape != nullptr) return tape->Scratch(rows, cols);
  return Matrix::Uninit(rows, cols);
}

Matrix ScratchZero(int64_t rows, int64_t cols) {
  Tape* tape = Tape::Active();
  if (tape != nullptr) return tape->ScratchZero(rows, cols);
  return Matrix(rows, cols);
}

Matrix ScratchCopy(const Matrix& src) {
  Matrix out = ScratchUninit(src.rows(), src.cols());
  if (src.size() > 0) {
    std::memcpy(out.data(), src.data(),
                static_cast<size_t>(src.size()) * sizeof(double));
  }
  return out;
}

}  // namespace tsg::ag
